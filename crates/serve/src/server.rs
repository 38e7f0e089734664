//! The query daemon: a fixed worker pool behind a bounded admission queue.
//!
//! Threading model (std-only, no async runtime):
//!
//! * one **acceptor** (the thread that called [`Server::run`]) and one
//!   lightweight **reader** thread per connection, both run by the shared
//!   [`crate::front`]; the reader *admits* queries — admission is where
//!   load shedding happens, so a slow query can never stall frame parsing
//!   — and answers metrics reads, health and dumps itself, so a read of
//!   the daemon's state is never queued behind (or shed with) queries;
//! * a fixed pool of **workers** executes queries. Live register state
//!   ([`AnalysisProgram`]) is shared immutably (`Arc`, wait-free reads);
//!   archive access is **sharded per worker** — each worker owns its own
//!   file handle and [`StoreReader`], so seeks never contend — with the
//!   [`DecodeCache`] shared across shards.
//!
//! Admission control never drops silently: a full admission queue, a
//! connection over its in-flight cap, or a connection refused at the
//! accept cap all answer with an explicit `Busy{retry_after}` frame and a
//! `pq_serve_shed_total` increment. Shutdown (a `ShutdownReq` frame or
//! [`ServerHandle::shutdown`]) stops accepting, drains queued queries
//! until a deadline, then answers the remainder with typed
//! `ShuttingDown` errors — in-flight work is never abandoned mid-write —
//! and the front ends each open connection with `Error{id: 0,
//! ShuttingDown}`.

use crate::answer::{self, MetricsUpdate, RemoteMonitor, RemoteResult, RemoteRtt};
use crate::cache::DecodeCache;
use crate::front::{self, Conn, Front, Handler};
use crate::standing::{window_result, Emitter, Subscriptions};
use crate::wire::{ErrorCode, Frame, HealthInfo, Request, ShardMap, ShardMapEntry};
use pq_core::coefficient::Coefficients;
use pq_core::control::{AnalysisProgram, CoverageGap};
use pq_core::snapshot::QueryInterval;
use pq_packet::FlowId;
use pq_rtt::{RttReport, RTT_SEGMENT_KIND};
use pq_store::StoreReader;
use pq_stream::{Record as StreamRecord, Standing};
use pq_telemetry::{
    names, provenance, to_prometheus, Counter, Gauge, Histogram, OpenSpan, RequestTrace, Telemetry,
    TraceClock, TraceContext,
};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for the daemon. The defaults suit the test/bench scale;
/// `pqsim serve` exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Query worker threads (the pool executing queries).
    pub workers: usize,
    /// Bound on the admission queue; requests beyond it are shed.
    pub queue_cap: usize,
    /// Per-connection cap on queued + executing requests.
    pub inflight_per_conn: usize,
    /// Connections beyond this are refused with `Busy` at accept.
    pub max_conns: usize,
    /// Decoded-segment cache budget; 0 disables the cache.
    pub cache_bytes: u64,
    /// Backoff hint carried in `Busy` frames.
    pub retry_after_ms: u32,
    /// How long shutdown keeps draining queued queries before answering
    /// the rest with `ShuttingDown` errors.
    pub drain_deadline: Duration,
    /// Artificial per-query service delay, for load tests and the
    /// overload bench scenario. Zero in normal operation.
    pub work_delay: Duration,
    /// Shard identity this daemon serves under (empty when unsharded).
    /// Carried in `HealthAck` and `ShardMapAck` so a router — or an
    /// operator watching a mixed fleet — can tell backends apart.
    pub shard: String,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_cap: 128,
            inflight_per_conn: 8,
            max_conns: 64,
            cache_bytes: 64 << 20,
            retry_after_ms: 50,
            drain_deadline: Duration::from_secs(5),
            work_delay: Duration::ZERO,
            shard: String::new(),
        }
    }
}

/// What the server answers queries from.
#[derive(Default)]
pub struct Sources {
    /// Live analysis-program state (time-window and queue-monitor kinds).
    pub live: Option<Arc<AnalysisProgram>>,
    /// A `.pqa` archive path (replay kind). Opened once per worker.
    pub archive: Option<PathBuf>,
    /// Live RTT reports (the `rtt` query kind), typically one per port
    /// from an `RttHook` drain. RTT spill segments found in `archive`
    /// are loaded at bind time and served alongside these.
    pub rtt: Vec<RttReport>,
}

/// Pre-resolved `pq_serve_*` registry handles (one mutex hit at startup,
/// none per request).
struct Instruments {
    req_time_windows: Counter,
    req_queue_monitor: Counter,
    req_replay: Counter,
    req_rtt: Counter,
    req_standing: Counter,
    err_time_windows: Counter,
    err_queue_monitor: Counter,
    err_replay: Counter,
    err_rtt: Counter,
    rtt_queries: Counter,
    shed: Counter,
    request_ns: Histogram,
    queue_depth: Gauge,
    uptime_secs: Gauge,
    stream_subs: Gauge,
    stream_windows_closed: Counter,
    stream_late: Counter,
    stream_evictions_topk: Counter,
    stream_evictions_window: Counter,
    stream_results: Counter,
    plane: Telemetry,
}

impl Instruments {
    fn resolve(plane: &Telemetry) -> Instruments {
        let reg = plane.registry();
        let req = |kind| reg.counter(names::SERVE_REQUESTS, &[("kind", kind)]);
        let err = |kind| reg.counter(names::SERVE_ERRORS, &[("kind", kind)]);
        Instruments {
            req_time_windows: req("time_windows"),
            req_queue_monitor: req("queue_monitor"),
            req_replay: req("replay"),
            req_rtt: req("rtt"),
            req_standing: req("standing"),
            err_time_windows: err("time_windows"),
            err_queue_monitor: err("queue_monitor"),
            err_replay: err("replay"),
            err_rtt: err("rtt"),
            rtt_queries: reg.counter(names::RTT_QUERIES, &[]),
            shed: reg.counter(names::SERVE_SHED, &[]),
            request_ns: reg.histogram(names::SERVE_REQUEST_NS, &[]),
            queue_depth: reg.gauge(names::SERVE_QUEUE_DEPTH, &[]),
            uptime_secs: reg.gauge(names::SERVE_UPTIME, &[]),
            stream_subs: reg.gauge(names::STREAM_SUBSCRIPTIONS, &[]),
            stream_windows_closed: reg.counter(names::STREAM_WINDOWS_CLOSED, &[]),
            stream_late: reg.counter(names::STREAM_LATE_RECORDS, &[]),
            stream_evictions_topk: reg.counter(names::STREAM_EVICTIONS, &[("kind", "topk")]),
            stream_evictions_window: reg.counter(names::STREAM_EVICTIONS, &[("kind", "window")]),
            stream_results: reg.counter(names::STREAM_RESULTS, &[]),
            plane: plane.clone(),
        }
    }

    fn completed(&self, kind: &str) {
        match kind {
            "time_windows" => self.req_time_windows.inc(),
            "queue_monitor" => self.req_queue_monitor.inc(),
            "rtt" => self.req_rtt.inc(),
            "standing" => self.req_standing.inc(),
            _ => self.req_replay.inc(),
        }
    }

    fn errored(&self, kind: &str) {
        match kind {
            "time_windows" => self.err_time_windows.inc(),
            "queue_monitor" => self.err_queue_monitor.inc(),
            "rtt" => self.err_rtt.inc(),
            _ => self.err_replay.inc(),
        }
    }
}

/// One admitted query waiting for (or held by) a worker, with the trace
/// context the request carried (if any).
struct Job {
    conn: Arc<Conn>,
    id: u64,
    req: Request,
    trace: Option<TraceContext>,
    admitted: Instant,
}

/// Bound on simultaneously open windows per standing subscription; the
/// oldest window is force-closed (and flagged `forced`) past it, so a
/// pathological sliding query cannot grow server state without bound.
const MAX_OPEN_WINDOWS: usize = 4096;

/// Bound on standing subscriptions whose stream is still open; a
/// registration beyond it is shed with `Busy`, like any other overload.
const MAX_OPEN_STREAMS: usize = 16;

struct Shared {
    config: ServeConfig,
    /// The bound listen address, rendered for `ShardMapAck`.
    local_addr: String,
    live: Option<Arc<AnalysisProgram>>,
    archive: Option<PathBuf>,
    cache: Option<DecodeCache>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Drain deadline as nanos since `started` (0 = not shutting down).
    drain_deadline_ns: AtomicU64,
    front: Front,
    /// Workers currently executing a job (not waiting on the queue).
    busy_workers: AtomicUsize,
    /// Standing subscriptions still owed their final frame.
    streams: Subscriptions,
    /// Canonical RTT reports (live hook output plus archive spill),
    /// the source for `rtt` queries and standing queries' RTT samples.
    /// Immutable while serving.
    rtt: Vec<RttReport>,
    instruments: Instruments,
    started: Instant,
    /// Unix-epoch-anchored monotonic clock for trace-span timestamps —
    /// comparable across processes, so stitched timelines line up.
    trace_clock: TraceClock,
    /// Process name stamped on trace spans (`serve` or `serve:<shard>`).
    process: String,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn initiate_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let deadline = self.now_ns().saturating_add(
                u64::try_from(self.config.drain_deadline.as_nanos()).unwrap_or(u64::MAX),
            );
            self.drain_deadline_ns.store(deadline, Ordering::SeqCst);
        }
        self.queue_cv.notify_all();
    }

    fn past_drain_deadline(&self) -> bool {
        let d = self.drain_deadline_ns.load(Ordering::SeqCst);
        d != 0 && self.now_ns() > d
    }

    /// Refresh the uptime gauge so snapshots and expositions always carry
    /// a current value without a dedicated ticker.
    fn touch_uptime(&self) {
        self.instruments
            .uptime_secs
            .set(self.started.elapsed().as_secs());
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A handle to a server running on a background thread.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    join: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (useful with `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drain and stop the server, blocking until it has exited.
    pub fn shutdown(self) -> io::Result<()> {
        self.shared.initiate_shutdown();
        self.join.join().expect("server thread panicked")
    }

    /// Abruptly terminate the server — the in-process analog of `SIGKILL`
    /// for chaos tests. No drain, no final stream frames: every
    /// connection socket is torn down immediately (peers see EOF/reset,
    /// exactly what a killed process's kernel would send), queued work is
    /// abandoned, and the acceptor exits.
    pub fn kill(self) -> io::Result<()> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // A deadline already in the past: any queued job a worker still
        // pops is answered with ShuttingDown into a dead socket.
        self.shared.drain_deadline_ns.store(1, Ordering::SeqCst);
        self.shared.streams.clear();
        self.shared.front.kill_all();
        self.shared.queue_cv.notify_all();
        self.join.join().expect("server thread panicked")
    }
}

impl Server {
    /// Bind `addr` and prepare to serve `sources`. The archive (if any)
    /// is opened once here so a bad path fails at bind time, not on the
    /// first query.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        sources: Sources,
        config: ServeConfig,
        plane: &Telemetry,
    ) -> io::Result<Server> {
        let mut rtt = sources.rtt;
        if let Some(path) = &sources.archive {
            let file = File::open(path)?;
            let mut reader = StoreReader::open(BufReader::new(file))?;
            // Harvest RTT spill segments now: a corrupt spill fails at
            // bind time, like a bad archive path.
            let metas: Vec<_> = reader
                .segments()
                .iter()
                .filter(|s| s.kind == RTT_SEGMENT_KIND)
                .copied()
                .collect();
            for m in &metas {
                let body = reader.read_raw_body(m)?;
                let report = RttReport::decode(&body).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("port {} rtt segment: {e}", m.port),
                    )
                })?;
                rtt.push(report);
            }
        }
        // Surface the RTT data this daemon serves, in the same shape the
        // measuring hook publishes: the CI gate requires a
        // `pq_rtt_samples_total` floor, and watch alert rules evaluate
        // quantile predicates (`stat = "p99"`) over `pq_rtt_sample_ns`,
        // with the flow id as each sample's exemplar.
        for r in &rtt {
            if r.samples.is_empty() {
                continue;
            }
            let port_label = r.port.to_string();
            let labels = [("port", port_label.as_str())];
            let reg = plane.registry();
            let hist = reg.histogram(names::RTT_SAMPLE_NS, &labels);
            for s in &r.samples {
                hist.record_exemplar(s.rtt_ns, u128::from(s.flow));
            }
            reg.counter(names::RTT_SAMPLES, &labels)
                .add(r.samples.len() as u64);
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default();
        let cache = (config.cache_bytes > 0).then(|| DecodeCache::new(config.cache_bytes, plane));
        let process = if config.shard.is_empty() {
            "serve".to_string()
        } else {
            format!("serve:{}", config.shard)
        };
        let instruments = Instruments::resolve(plane);
        let front = Front::new(
            config.max_conns,
            config.retry_after_ms,
            instruments.shed.clone(),
            Some(plane.registry().counter(names::SERVE_CONNECTIONS, &[])),
            plane,
            names::SERVE_REQUESTS,
            "pq-serve-conn",
        );
        let shared = Arc::new(Shared {
            local_addr,
            live: sources.live,
            archive: sources.archive,
            cache,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            drain_deadline_ns: AtomicU64::new(0),
            front,
            busy_workers: AtomicUsize::new(0),
            streams: Subscriptions::new(instruments.stream_subs.clone()),
            rtt,
            instruments,
            started: Instant::now(),
            trace_clock: TraceClock::new(),
            process,
            config,
        });
        Ok(Server { listener, shared })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared decode cache, if enabled (benches snapshot its stats).
    pub fn cache(&self) -> Option<&DecodeCache> {
        self.shared.cache.as_ref()
    }

    /// Run the accept loop on this thread until shutdown, then drain.
    pub fn run(self) -> io::Result<()> {
        let shared = self.shared;
        let mut workers = Vec::with_capacity(shared.config.workers);
        for w in 0..shared.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("pq-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        front::serve(&self.listener, &shared)?;
        for w in workers {
            let _ = w.join();
        }
        // Queries are drained; close every open standing stream with its
        // final `last` frame instead of a dropped socket.
        shared.streams.drain();
        // Workers are done; release any reader threads still blocked on
        // their sockets.
        shared.front.close_all();
        Ok(())
    }

    /// Run on a background thread, returning a shutdown handle.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let join = thread::Builder::new()
            .name("pq-serve-acceptor".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle { shared, addr, join })
    }
}

impl Handler for Shared {
    fn front(&self) -> &Front {
        &self.front
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn stop(&self) {
        self.initiate_shutdown();
    }

    /// Assemble the health answer from live counters — cheap enough to
    /// run inline on the reader thread, so health stays answerable even
    /// when every worker is wedged.
    fn health(&self) -> HealthInfo {
        self.touch_uptime();
        let snap = self.instruments.plane.snapshot();
        let (version, commit) = provenance::build_info(&snap)
            .unwrap_or_else(|| ("unknown".to_string(), "unknown".to_string()));
        HealthInfo {
            uptime_ns: self.now_ns(),
            workers: self.config.workers.max(1) as u32,
            busy_workers: self.busy_workers.load(Ordering::SeqCst) as u32,
            queue_depth: self.queue.lock().unwrap().len() as u32,
            queue_cap: self.config.queue_cap as u32,
            active_conns: self.front.active_conns() as u32,
            max_conns: self.config.max_conns as u32,
            draining: self.shutdown.load(Ordering::SeqCst),
            version,
            commit,
            shard: self.config.shard.clone(),
        }
    }

    /// A lone daemon's topology: a one-entry map describing itself.
    fn shard_map(&self) -> ShardMap {
        ShardMap {
            generation: 0,
            replication: 1,
            epoch_ns: 0,
            backends: vec![ShardMapEntry {
                shard: self.config.shard.clone(),
                addr: self.local_addr.clone(),
                healthy: !self.shutdown.load(Ordering::SeqCst),
            }],
        }
    }

    /// Admit a query to the pool, or answer any other request inline.
    fn dispatch(&self, conn: &Arc<Conn>, frame: Frame) {
        match frame {
            Frame::Request { id, req, trace } => admit(self, conn, id, req, trace),
            Frame::MetricsReq { id } => {
                self.touch_uptime();
                let text = to_prometheus(&self.instruments.plane.snapshot());
                let _ = conn.send(&[Frame::MetricsText { id, text }]);
            }
            Frame::MetricsGet { id } => {
                // The structured twin of `MetricsReq`, answered the same
                // way: a watcher polls it, and a poll is never queued
                // behind or shed with the queries it is watching.
                self.touch_uptime();
                let update =
                    MetricsUpdate::snapshot(self.now_ns(), self.instruments.plane.snapshot());
                let _ = conn.send(&update.to_frames(id));
            }
            Frame::StandingQueryReq {
                id,
                cap,
                max_windows,
                stop_after_seal,
                query,
                trace,
            } => register_standing(
                self,
                conn,
                id,
                cap,
                max_windows,
                stop_after_seal,
                &query,
                trace,
            ),
            Frame::ProfileDumpReq { id } => {
                // Inline like a trace dump: a profile read is a diagnostic
                // and must keep working when the worker pool is saturated.
                // Serving it here also keeps the dump path outside the
                // `serve/worker_exec` scope, so a dump never perturbs the
                // numbers it reports.
                let bytes = pq_prof::ProfileReport::capture().encode();
                let _ = conn.send(&answer::profile_frames(id, &bytes));
            }
            Frame::StandingQueryCancel { id, sub } => self.streams.cancel(conn, id, sub),
            other => unreachable!("the front answers {other:?} itself"),
        }
    }
}

/// Admission control: shed (never block, never silently drop) or enqueue.
fn admit(shared: &Shared, conn: &Arc<Conn>, id: u64, req: Request, trace: Option<TraceContext>) {
    let busy = |frame_id| {
        shared.instruments.shed.inc();
        let _ = conn.send(&[Frame::Busy {
            id: frame_id,
            retry_after_ms: shared.config.retry_after_ms,
        }]);
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        let _ = conn.send(&[Frame::error(id, ErrorCode::ShuttingDown, "draining")]);
        return;
    }
    if conn.inflight.load(Ordering::SeqCst) >= shared.config.inflight_per_conn {
        busy(id);
        return;
    }
    let mut queue = shared.queue.lock().unwrap();
    if queue.len() >= shared.config.queue_cap {
        drop(queue);
        busy(id);
        return;
    }
    conn.inflight.fetch_add(1, Ordering::SeqCst);
    queue.push_back(Job {
        conn: Arc::clone(conn),
        id,
        req,
        trace,
        admitted: Instant::now(),
    });
    shared.instruments.queue_depth.set(queue.len() as u64);
    drop(queue);
    shared.queue_cv.notify_one();
}

/// One worker: pop, execute, respond, repeat. Exits when shutdown is set
/// and the queue has drained.
fn worker_loop(shared: &Arc<Shared>) {
    // This worker's archive shard: its own handle, opened lazily.
    let mut reader: Option<StoreReader<BufReader<File>>> = None;
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.instruments.queue_depth.set(queue.len() as u64);
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap();
                queue = q;
            }
        };
        let Some(job) = job else { return };
        if shared.shutdown.load(Ordering::SeqCst) && shared.past_drain_deadline() {
            let _ = job.conn.send(&[Frame::error(
                job.id,
                ErrorCode::ShuttingDown,
                "drain deadline passed",
            )]);
            job.conn.inflight.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        shared.busy_workers.fetch_add(1, Ordering::SeqCst);
        // Mark the queue→worker handoff before the simulated work delay so
        // the delay is attributed to execution, not admission wait.
        let picked_ns = shared.trace_clock.now_ns();
        let wait_ns = u64::try_from(job.admitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if !shared.config.work_delay.is_zero() {
            thread::sleep(shared.config.work_delay);
        }
        let kind = job.req.kind();
        // Continue the propagated context, or originate a root here
        // so locally-issued queries are traceable too. The echo is
        // the context exactly as the request carried it — old
        // clients that sent none get none back.
        let admit_ns = picked_ns.saturating_sub(wait_ns);
        let traces = shared.instruments.plane.traces();
        let mut tracer = RequestTrace::open(traces, job.trace, &shared.process, admit_ns);
        // execute() parents segment_decode under worker_exec before
        // that span closes.
        let exec = tracer
            .as_mut()
            .map(|t| t.open_span(t.root_span(), picked_ns));
        let exec_span = exec.as_ref().map_or(0, OpenSpan::id);
        // The profiling scope closes with this block — before the
        // answer is sent below — so a client that reads its result
        // and immediately pulls a profile dump sees its own query's
        // time (the same read-your-writes contract the request
        // counters keep).
        let frames = {
            pq_prof::scope!("serve/worker_exec");
            execute(
                shared,
                &mut reader,
                job.id,
                job.req,
                job.trace,
                tracer.as_mut(),
                exec_span,
            )
        };
        let exec_end_ns = shared.trace_clock.now_ns();
        // Count before answering: a synchronous client that reads
        // its result and immediately asks for metrics must see its
        // own query in the counters (read-your-writes; the
        // get-vs-prom consistency test relies on it).
        let latency = u64::try_from(job.admitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let errored = matches!(frames.first(), Some(Frame::Error { .. }));
        let committed = tracer.zip(exec).and_then(|(mut t, exec)| {
            let root = t.root_span();
            t.record(names::SPAN_ADMISSION_WAIT, root, admit_ns, picked_ns, "");
            let tag = if errored { "error" } else { "ok" };
            t.close_span(exec, names::SPAN_WORKER_EXEC, exec_end_ns, tag);
            t.close(names::SPAN_SERVE_REQUEST, exec_end_ns, kind)
        });
        match committed {
            Some(tid) => shared.instruments.request_ns.record_exemplar(latency, tid),
            None => shared.instruments.request_ns.record(latency),
        }
        if errored {
            shared.instruments.errored(kind);
        } else {
            shared.instruments.completed(kind);
        }
        let _ = job.conn.send(&frames);
        job.conn.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.busy_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Register a standing continuous query on this connection and answer
/// it in one pass, on the reader thread. The live program is immutable
/// while serving (the trace ran before bind), so its checkpoint log and
/// RTT samples are complete now: every record goes through the window
/// operator once, the source seals, and every window closes.
#[allow(clippy::too_many_arguments)]
fn register_standing(
    shared: &Shared,
    conn: &Arc<Conn>,
    id: u64,
    cap: u32,
    max_windows: u32,
    stop_after_seal: bool,
    query: &str,
    trace: Option<TraceContext>,
) {
    if shared.shutdown.load(Ordering::SeqCst) {
        let _ = conn.send(&[Frame::error(id, ErrorCode::ShuttingDown, "draining")]);
        return;
    }
    let Some(live) = &shared.live else {
        let _ = conn.send(&[Frame::error(
            id,
            ErrorCode::NoLiveState,
            "standing queries evaluate over live state",
        )]);
        return;
    };
    let parsed = match pq_stream::parse(query) {
        Ok(q) => q,
        Err(e) => {
            let _ = conn.send(&[Frame::error(id, ErrorCode::BadQuery, &e.to_string())]);
            return;
        }
    };
    if let pq_stream::PortSel::One(port) = parsed.port {
        if !live.is_active(port) {
            let _ = conn.send(&[Frame::error(
                id,
                ErrorCode::UnknownPort,
                &format!("port {port} not activated"),
            )]);
            return;
        }
    }
    if shared.streams.count() >= MAX_OPEN_STREAMS {
        shared.instruments.shed.inc();
        let _ = conn.send(&[Frame::Busy {
            id,
            retry_after_ms: shared.config.retry_after_ms,
        }]);
        return;
    }
    let Some(mut emitter) = Emitter::ack(conn, id, &parsed, cap, max_windows, trace) else {
        return;
    };
    shared.instruments.completed("standing");
    let mut state = Standing::new(parsed, MAX_OPEN_WINDOWS);
    // Depth records and RTT samples share one stream, fed in global
    // `(t_ns, port, rtt, depth)` order (a port's depth records before its
    // RTT samples at the same instant) so one watermark governs both:
    // feeding whole ports one after another would present a multi-port
    // subscription with a wildly out-of-order stream and drop the later
    // ports' history as late.
    let ports = match state.query.pinned_port() {
        Some(p) => vec![p],
        None => live.ports(),
    };
    let mut batch: Vec<(u64, u16, Option<u64>, u64)> = Vec::new();
    for port in ports {
        for cp in live.checkpoints(port) {
            let depth = cp.queue_monitor().map(|q| u64::from(q.top)).unwrap_or(0);
            batch.push((cp.frozen_at, port, None, depth));
        }
    }
    for r in &shared.rtt {
        batch.extend(
            r.samples
                .iter()
                .map(|s| (s.t_ns, r.port, Some(s.rtt_ns), 0)),
        );
    }
    batch.sort_unstable();
    for (t_ns, port, rtt, depth) in batch {
        let on_time = match rtt {
            Some(v) => state.push_rtt(t_ns, port, v),
            None => state.push(StreamRecord { t_ns, port, depth }),
        };
        if !on_time {
            shared.instruments.stream_late.inc();
        }
    }
    state.seal();
    let close_start_ns = shared.trace_clock.now_ns();
    let mut closed = 0u64;
    for close in state.drain() {
        // One scope entry per closed window: calls == windows
        // materialized.
        pq_prof::scope!("stream/window_close");
        shared.instruments.stream_windows_closed.inc();
        closed += 1;
        if close.forced {
            shared.instruments.stream_evictions_window.inc();
        }
        let mut result = window_result(&close, state.watermark());
        let mut flows = emitter.summary();
        if emitter.wants_flows(close.fired) {
            // The *same* time-window query the one-shot path runs —
            // `[from, to)` maps to the inclusive `[from, to-1]` — so a
            // standing answer is bit-identical to an offline query over
            // the same closed window.
            let interval = QueryInterval::new(close.key.from, close.key.to - 1);
            let answer = live.query_time_windows(close.key.port, interval);
            result.degraded |= answer.degraded;
            result.gaps = answer.gaps;
            for (flow, est) in answer.estimates.ranked() {
                flows.offer(flow.0, est);
            }
            shared
                .instruments
                .stream_evictions_topk
                .add(flows.evictions);
        }
        if close.fired {
            shared.instruments.stream_results.inc();
        }
        if !emitter.window(result, &flows) {
            break;
        }
    }
    emitter.seal(stop_after_seal, state.watermark());
    let emit_start_ns = shared.trace_clock.now_ns();
    let sent = shared.streams.register(conn, emitter, state.watermark());
    // A sampled standing query gets a `window_close` span around
    // materialization and an `emit` span around the send, committed
    // only when the pass produced frames.
    let traces = shared.instruments.plane.traces();
    let sent_trace = trace.filter(|_| sent > 0);
    if let Some(mut t) = RequestTrace::follow(traces, sent_trace, &shared.process, close_start_ns) {
        let end_ns = shared.trace_clock.now_ns();
        t.record(
            names::SPAN_EMIT,
            t.parent_span(),
            emit_start_ns,
            end_ns,
            &sent.to_string(),
        );
        t.close(names::SPAN_WINDOW_CLOSE, emit_start_ns, &closed.to_string());
    }
}

/// Execute one query into its response frame sequence.
///
/// `echo` is the trace context exactly as the request carried it — it is
/// reflected on the answer header so the caller can match answers to the
/// trace it started. `tracer`/`exec_span` let the archive path attribute
/// segment-decode time as a child of the worker-exec span.
fn execute(
    shared: &Arc<Shared>,
    reader: &mut Option<StoreReader<BufReader<File>>>,
    id: u64,
    req: Request,
    echo: Option<TraceContext>,
    tracer: Option<&mut RequestTrace<'_>>,
    exec_span: u64,
) -> Vec<Frame> {
    match req {
        Request::TimeWindows { port, from, to } => {
            let Some(live) = &shared.live else {
                return vec![Frame::error(id, ErrorCode::NoLiveState, "")];
            };
            if !live.is_active(port) {
                return vec![Frame::error(
                    id,
                    ErrorCode::UnknownPort,
                    &format!("port {port} not activated"),
                )];
            }
            let interval = QueryInterval::new(from, to);
            let result = live.query_time_windows(port, interval);
            let answer = RemoteResult {
                estimates: result.estimates,
                gaps: result.gaps,
                degraded: result.degraded,
                checkpoints: live.checkpoints(port).len() as u64,
                trace: echo,
            };
            answer.to_frames(id)
        }
        Request::QueueMonitor { port, at } => {
            let Some(live) = &shared.live else {
                return vec![Frame::error(id, ErrorCode::NoLiveState, "")];
            };
            if !live.is_active(port) {
                return vec![Frame::error(
                    id,
                    ErrorCode::UnknownPort,
                    &format!("port {port} not activated"),
                )];
            }
            let Some(ans) = live.query_queue_monitor(port, at) else {
                return vec![Frame::error(
                    id,
                    ErrorCode::NoData,
                    "no queue-monitor checkpoint stored",
                )];
            };
            let mut counts: Vec<(FlowId, u64)> = ans.culprit_counts().into_iter().collect();
            counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let answer = RemoteMonitor {
                frozen_at: ans.frozen_at,
                staleness: ans.staleness,
                degraded: ans.degraded,
                gaps: ans.gaps,
                counts,
                trace: echo,
            };
            answer.to_frames(id)
        }
        Request::Replay { port, from, to, d } => {
            let Some(path) = &shared.archive else {
                return vec![Frame::error(id, ErrorCode::NoArchive, "")];
            };
            // This worker's shard: open on first use, reuse after.
            if reader.is_none() {
                match File::open(path).and_then(|f| StoreReader::open(BufReader::new(f))) {
                    Ok(r) => *reader = Some(r),
                    Err(e) => return vec![io_error(id, from, to, &e)],
                }
            }
            let r = reader.as_mut().unwrap();
            if !r.ports().contains(&port) {
                return vec![Frame::error(
                    id,
                    ErrorCode::UnknownPort,
                    &format!("port {port} not present in archive"),
                )];
            }
            let interval = QueryInterval::new(from, to);
            let coeffs = Coefficients::compute(r.tw_config(), d);
            let mut view = shared.cache.as_ref().map(|c| c.for_archive(0));
            let query = r.query_cached(
                port,
                interval,
                &coeffs,
                view.as_mut().map(|v| v as &mut dyn pq_store::SegmentCache),
            );
            if let Some(t) = tracer {
                // The reader's per-query stats carry decode time and cache
                // disposition; anchor the span so it *ends* now (the decode
                // happened somewhere inside query_cached).
                let stats = r.last_query_stats();
                if stats.segments > 0 {
                    let end_ns = shared.trace_clock.now_ns();
                    t.record(
                        names::SPAN_SEGMENT_DECODE,
                        exec_span,
                        end_ns.saturating_sub(stats.decode_ns),
                        end_ns,
                        stats.cache_tag(),
                    );
                }
            }
            match query {
                Ok(result) => {
                    let answer = RemoteResult {
                        estimates: result.estimates,
                        gaps: result.gaps,
                        degraded: result.degraded,
                        checkpoints: r.checkpoint_count(port),
                        trace: echo,
                    };
                    answer.to_frames(id)
                }
                Err(e) => {
                    // The reader may now be mid-seek; drop the shard so the
                    // next query reopens cleanly.
                    *reader = None;
                    vec![io_error(id, from, to, &e)]
                }
            }
        }
        Request::Rtt {
            port,
            from,
            to,
            max_flows,
        } => {
            shared.instruments.rtt_queries.inc();
            let measure_start = shared.trace_clock.now_ns();
            // Report-granular selection keyed by each report's start
            // time, like replay's checkpoint-timestamp keying: a report
            // belongs to the interval containing `min_t`. Keying (rather
            // than span intersection) partitions reports across disjoint
            // intervals, so a router slicing [from, to] by epoch merges
            // each report exactly once and stays bit-identical to a
            // single daemon answering the whole range. "No samples" is a
            // valid measurement, so the answer is an (empty) report,
            // never an error — which also keeps routed merges uniform.
            let mut merged = RttReport::empty(port);
            for r in shared
                .rtt
                .iter()
                .filter(|r| r.port == port && from <= r.min_t && r.min_t <= to)
            {
                merged.merge(r);
            }
            // Truncation happens here, at the answering hop, after every
            // merge — a router asking on a client's behalf sends
            // max_flows 0 and truncates its own merged answer instead.
            let dropped = merged.truncate_flows(max_flows as usize);
            let degraded = merged.degraded() || dropped > 0;
            let samples = merged.sample_count();
            let answer = RemoteRtt {
                report: merged,
                degraded,
                trace: echo,
            };
            let frames = answer.to_frames(id);
            if let Some(t) = tracer {
                t.record(
                    names::SPAN_RTT_MEASURE,
                    exec_span,
                    measure_start,
                    shared.trace_clock.now_ns(),
                    &samples.to_string(),
                );
            }
            frames
        }
    }
}

/// A typed I/O error frame. The gap summary is the whole queried
/// interval: from the client's point of view nothing in it was answered,
/// which is exactly what a coverage gap means — so degraded-query
/// semantics survive server-side failures.
fn io_error(id: u64, from: u64, to: u64, e: &io::Error) -> Frame {
    let interval = QueryInterval::new(from, to);
    Frame::Error {
        id,
        code: ErrorCode::Io,
        gaps: vec![CoverageGap {
            from: interval.from,
            to: interval.to,
        }],
        message: e.to_string(),
    }
}
