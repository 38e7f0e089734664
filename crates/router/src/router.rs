//! The scatter-gather router daemon.
//!
//! A thin tier speaking the same wire protocol as `pq-serve`, so every
//! existing client — `pqsim query --remote`, `pqsim watch`, the bench
//! harness — can point at a router unchanged. Per query the router:
//!
//! 1. splits the interval into epoch slices ([`crate::shard::epochs`];
//!    one slice under the default port-only sharding),
//! 2. ranks each slice's owners by rendezvous hashing and tries them
//!    **in order** — healthy owners first, quarantined ones as a last
//!    resort. Sequential per-shard failover (not hedged fan-out) is
//!    deliberate: hedging would burn `replication`× backend capacity
//!    per query and flatten aggregate throughput scaling,
//! 3. fails over transparently on transient errors (timeout, reset,
//!    `Busy` past the retry budget, a backend answering `ShuttingDown`)
//!    and quarantines a backend after repeated failures; a probe loop
//!    readmits it once `HealthReq` passes again,
//! 4. merges partials with the order-independent rollup in
//!    [`crate::merge`] — a single-owner answer passes through
//!    bit-identical to the backend's own.
//!
//! Authoritative errors (unknown port, no archive, no data) are *not*
//! failed over: every replica would answer the same, so the first
//! answer is forwarded as-is.

use crate::merge::{merge_results, normalize_gaps};
use crate::shard::{epoch_of, epochs, rendezvous_rank, BackendSpec, EpochSlice};
use pq_core::control::CoverageGap;
use pq_core::snapshot::QueryInterval;
use pq_rtt::RttReport;
use pq_serve::answer::profile_frames;
use pq_serve::front::{self, Conn, Front, Handler};
use pq_serve::standing::{window_result, Emitter, Subscriptions};
use pq_serve::wire::{
    ErrorCode, Frame, HealthInfo, Request, ShardMap, ShardMapEntry, StreamResult, ENTRIES_PER_FRAME,
};
use pq_serve::{
    Client, ClientError, MetricsUpdate, RemoteMonitor, RemoteResult, RemoteRtt, RetryPolicy,
};
use pq_stream::{Closed, DepthAgg, WindowKey};
use pq_telemetry::{
    names, provenance, to_prometheus, Counter, Gauge, Histogram, RequestTrace, Telemetry,
    TraceClock, TraceContext,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for the router tier. `pqsim router` exposes each as a
/// flag.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Owners per `(port, epoch)` shard. 2 tolerates any single backend
    /// loss with zero lost answers.
    pub replication: u32,
    /// Time-axis shard width in nanoseconds; 0 (the default) shards by
    /// port only, which keeps every answer on the single-partial
    /// bit-identity fast path.
    pub epoch_ns: u64,
    /// Bound on establishing a backend connection.
    pub connect_timeout: Duration,
    /// Bound on every backend read/write; a wedged backend surfaces as
    /// a transient failure instead of hanging the query.
    pub io_timeout: Duration,
    /// Busy-retry policy applied per sub-query (honors the backend's
    /// `retry_after` hint, jittered and capped).
    pub retry: RetryPolicy,
    /// Consecutive sub-query failures before a backend is quarantined.
    pub quarantine_after: u32,
    /// How often the probe loop health-checks quarantined backends.
    pub probe_interval: Duration,
    /// Client connections beyond this are refused with `Busy`.
    pub max_conns: usize,
    /// Backoff hint carried in the router's own `Busy` frames.
    pub retry_after_ms: u32,
    /// Idle pooled connections kept per backend.
    pub pool_per_backend: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            replication: 2,
            epoch_ns: 0,
            connect_timeout: Duration::from_millis(250),
            io_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            quarantine_after: 2,
            probe_interval: Duration::from_millis(100),
            max_conns: 64,
            retry_after_ms: 50,
            pool_per_backend: 8,
        }
    }
}

/// Pre-resolved `pq_router_*` registry handles.
struct Instruments {
    req_time_windows: Counter,
    req_queue_monitor: Counter,
    req_replay: Counter,
    req_rtt: Counter,
    req_standing: Counter,
    rtt_merges: Counter,
    errors: Counter,
    shed: Counter,
    fanout: Histogram,
    failovers: Counter,
    retries: Counter,
    quarantines: Counter,
    readmissions: Counter,
    quarantined: Gauge,
    shard_unavailable: Counter,
    plane: Telemetry,
}

impl Instruments {
    fn resolve(plane: &Telemetry) -> Instruments {
        let reg = plane.registry();
        let req = |kind| reg.counter(names::ROUTER_REQUESTS, &[("kind", kind)]);
        Instruments {
            req_time_windows: req("time_windows"),
            req_queue_monitor: req("queue_monitor"),
            req_replay: req("replay"),
            req_rtt: req("rtt"),
            req_standing: req("standing"),
            rtt_merges: reg.counter(names::RTT_MERGES, &[]),
            errors: reg.counter(names::ROUTER_ERRORS, &[]),
            shed: reg.counter(names::ROUTER_SHED, &[]),
            fanout: reg.histogram(names::ROUTER_FANOUT, &[]),
            failovers: reg.counter(names::ROUTER_FAILOVERS, &[]),
            retries: reg.counter(names::ROUTER_RETRIES, &[]),
            quarantines: reg.counter(names::ROUTER_QUARANTINES, &[]),
            readmissions: reg.counter(names::ROUTER_READMISSIONS, &[]),
            quarantined: reg.gauge(names::ROUTER_QUARANTINED, &[]),
            shard_unavailable: reg.counter(names::ROUTER_SHARD_UNAVAILABLE, &[]),
            plane: plane.clone(),
        }
    }

    fn completed(&self, kind: &str) {
        match kind {
            "time_windows" => self.req_time_windows.inc(),
            "queue_monitor" => self.req_queue_monitor.inc(),
            "rtt" => self.req_rtt.inc(),
            _ => self.req_replay.inc(),
        }
    }
}

/// One routed backend plus its failover state.
struct Backend {
    spec: BackendSpec,
    /// Consecutive transient sub-query failures; reset by any success
    /// or an authoritative answer.
    failures: AtomicU32,
    quarantined: AtomicBool,
    /// Idle pooled client connections.
    pool: Mutex<Vec<Client>>,
    /// `pq_router_backend_ns{backend=<name>}`.
    latency: Histogram,
}

struct Shared {
    config: RouterConfig,
    backends: Vec<Backend>,
    /// Bumped on every quarantine/readmission; carried in `ShardMapAck`
    /// so watchers can cheaply detect topology churn.
    generation: AtomicU64,
    shutdown: AtomicBool,
    /// The connection front shared with the serve daemon (same cap,
    /// handshake, framing and write-atomicity contract).
    front: Front,
    /// Routed standing subscriptions still owed their final frame.
    standing: Subscriptions,
    instruments: Instruments,
    started: Instant,
    /// Unix-epoch-anchored span clock, comparable across processes so a
    /// stitched timeline lines router spans up with backend spans.
    trace_clock: TraceClock,
}

/// One backend's contribution to a routed standing query: its closed
/// windows keyed `(port, from, to)` and its final watermark.
#[derive(Default)]
struct StandingPartial {
    windows: BTreeMap<(u16, u64, u64), StreamResult>,
    watermark: u64,
}

/// Transient failures fail over to a replica; authoritative ones do not
/// (every replica holds the same data and would answer identically).
fn transient(err: &ClientError) -> bool {
    match err {
        ClientError::Io(_)
        | ClientError::Wire(_)
        | ClientError::Protocol(_)
        | ClientError::Busy { .. } => true,
        ClientError::Remote { code, .. } => {
            matches!(code, ErrorCode::Io | ErrorCode::ShuttingDown)
        }
    }
}

/// Render a terminal sub-query failure for the caller. Authoritative
/// remote errors forward code/gaps/message untouched (bit-identical to
/// the backend's own frame); transport-level exhaustion becomes a typed
/// `Io` error whose gap summary covers the whole unanswered slice —
/// the same honesty contract the serve daemon keeps.
fn error_frame(id: u64, slice: &EpochSlice, err: ClientError) -> Frame {
    match err {
        ClientError::Remote {
            code,
            message,
            gaps,
        } => Frame::Error {
            id,
            code,
            gaps,
            message,
        },
        other => {
            let interval = QueryInterval::new(slice.from, slice.to);
            Frame::Error {
                id,
                code: ErrorCode::Io,
                gaps: vec![CoverageGap {
                    from: interval.from,
                    to: interval.to,
                }],
                message: format!("shard unavailable: {other}"),
            }
        }
    }
}

impl Shared {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn refresh_quarantined_gauge(&self) {
        let n = self
            .backends
            .iter()
            .filter(|b| b.quarantined.load(Ordering::SeqCst))
            .count();
        self.instruments.quarantined.set(n as u64);
    }

    /// Shard owners for `(port, epoch)`, healthy first (stable within
    /// each class, so rendezvous order still decides).
    fn owners(&self, port: u16, epoch: u64) -> Vec<usize> {
        let ranked = rendezvous_rank(&self.backends_specs(), port, epoch);
        let r = (self.config.replication.max(1) as usize).min(self.backends.len());
        let mut owners: Vec<usize> = ranked.into_iter().take(r).collect();
        owners.sort_by_key(|&i| self.backends[i].quarantined.load(Ordering::SeqCst));
        owners
    }

    fn backends_specs(&self) -> Vec<BackendSpec> {
        self.backends.iter().map(|b| b.spec.clone()).collect()
    }

    /// A fresh connection to `backend`, bounded by the connect and io
    /// timeouts.
    fn dial(&self, backend: &Backend) -> Result<Client, ClientError> {
        let addr: SocketAddr = backend.spec.addr.to_socket_addrs()?.next().ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                format!(
                    "backend address {:?} resolves to nothing",
                    backend.spec.addr
                ),
            ))
        })?;
        let client =
            Client::connect_timeout(&addr, self.config.connect_timeout, self.config.io_timeout)?;
        Ok(client)
    }

    /// Pop a pooled connection or dial a fresh one. The bool says which
    /// (a stale pooled socket earns one same-backend retry).
    fn checkout(&self, backend: &Backend) -> Result<(Client, bool), ClientError> {
        match backend.pool.lock().unwrap().pop() {
            Some(client) => Ok((client, true)),
            None => Ok((self.dial(backend)?, false)),
        }
    }

    fn checkin(&self, backend: &Backend, client: Client) {
        let mut pool = backend.pool.lock().unwrap();
        if pool.len() < self.config.pool_per_backend {
            pool.push(client);
        }
    }

    fn note_failure(&self, bi: usize) {
        let backend = &self.backends[bi];
        let failures = backend.failures.fetch_add(1, Ordering::SeqCst) + 1;
        if failures >= self.config.quarantine_after
            && !backend.quarantined.swap(true, Ordering::SeqCst)
        {
            self.instruments.quarantines.inc();
            self.refresh_quarantined_gauge();
            self.generation.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn note_success(&self, bi: usize) {
        self.backends[bi].failures.store(0, Ordering::SeqCst);
    }

    /// One sub-query against one backend, with the stale-pooled-socket
    /// retry and per-backend latency accounting.
    fn sub_call<T>(
        &self,
        bi: usize,
        mut call: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let backend = &self.backends[bi];
        let started = Instant::now();
        let mut retried_stale = false;
        let out = loop {
            let (mut client, reused) = match self.checkout(backend) {
                Ok(c) => c,
                Err(e) => break Err(e),
            };
            match call(&mut client) {
                Ok(v) => {
                    self.checkin(backend, client);
                    break Ok(v);
                }
                Err(e) if reused && transient(&e) && !retried_stale => {
                    // The pooled socket may have died while idle (backend
                    // restart); one fresh dial before blaming the backend.
                    retried_stale = true;
                    self.instruments.retries.inc();
                }
                Err(e) => break Err(e),
            }
        };
        backend
            .latency
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        match &out {
            Ok(_) => self.note_success(bi),
            Err(e) if transient(e) => self.note_failure(bi),
            // Authoritative answers prove the backend alive.
            Err(_) => self.note_success(bi),
        }
        out
    }

    /// Scatter one epoch slice: owners in rendezvous order, failing
    /// over on transient errors, quarantined owners as last resort. Each
    /// attempt continues `rt` on the pooled client and folds a downstream
    /// sample upgrade back into it; every attempt after the first is a
    /// `failover` span.
    fn shard_call<T>(
        &self,
        port: u16,
        epoch: u64,
        contacted: &mut BTreeSet<usize>,
        rt: &mut Option<RequestTrace<'_>>,
        mut call: impl FnMut(&mut Client, &RetryPolicy) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let owners = self.owners(port, epoch);
        let mut last_err = None;
        for (attempt, &bi) in owners.iter().enumerate() {
            if attempt > 0 {
                self.instruments.failovers.inc();
            }
            contacted.insert(bi);
            let attempt_start = self.trace_clock.now_ns();
            let out = self.sub_call(bi, |client| {
                client.set_trace_context(rt.as_ref().map(RequestTrace::child));
                let r = call(client, &self.config.retry);
                if let (Some(t), Some(c)) = (rt.as_mut(), client.trace_context()) {
                    t.upgrade(c.sampled);
                }
                client.set_trace_context(None);
                r
            });
            if attempt > 0 {
                let backend = &self.backends[bi].spec.name;
                self.span(rt, names::SPAN_FAILOVER, attempt_start, backend);
            }
            match out {
                Ok(v) => return Ok(v),
                Err(e) if transient(&e) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        self.instruments.shard_unavailable.inc();
        Err(last_err.unwrap_or_else(|| ClientError::Protocol("no backends configured".into())))
    }

    /// Open one routed request's trace: the `route` span is its root and
    /// backends continue it as that span's children.
    fn open_trace(&self, trace: Option<TraceContext>) -> Option<RequestTrace<'_>> {
        let start = self.trace_clock.now_ns();
        RequestTrace::open(self.instruments.plane.traces(), trace, "router", start)
    }

    /// Record a child of the `route` span from `start` until now.
    fn span(&self, rt: &mut Option<RequestTrace<'_>>, name: &str, start: u64, tag: impl Display) {
        if let Some(t) = rt {
            let end = self.trace_clock.now_ns();
            t.record(name, t.root_span(), start, end, &tag.to_string());
        }
    }

    /// Close the `route` span; the trace commits when it is sampled
    /// (originally, or upgraded by a Busy shed downstream) or slow.
    fn close_trace(&self, rt: Option<RequestTrace<'_>>, errored: bool) {
        if let Some(t) = rt {
            let tag = if errored { "error" } else { "ok" };
            t.close(names::SPAN_ROUTE, self.trace_clock.now_ns(), tag);
        }
    }

    /// Route a time-windows or replay query: slice, scatter, merge.
    fn route_query(&self, id: u64, req: Request, trace: Option<TraceContext>) -> Vec<Frame> {
        let (port, from, to, replay_d) = match req {
            Request::TimeWindows { port, from, to } => (port, from, to, None),
            Request::Replay { port, from, to, d } => (port, from, to, Some(d)),
            Request::QueueMonitor { .. } => unreachable!("monitor has its own path"),
            Request::Rtt { .. } => unreachable!("rtt has its own path"),
        };
        // Backends continue the trace as children of the route span; a
        // backend that sheds with Busy force-samples the retried context,
        // and the flag surfaces back here through the pooled client.
        let mut rt = self.open_trace(trace);
        let slices = epochs(from, to, self.config.epoch_ns);
        let mut contacted = BTreeSet::new();
        let mut partials = Vec::with_capacity(slices.len());
        let mut failed: Option<(usize, ClientError)> = None;
        for (si, slice) in slices.iter().enumerate() {
            let sub_req = match replay_d {
                None => Request::TimeWindows {
                    port,
                    from: slice.from,
                    to: slice.to,
                },
                Some(d) => Request::Replay {
                    port,
                    from: slice.from,
                    to: slice.to,
                    d,
                },
            };
            let got = self.shard_call(port, slice.epoch, &mut contacted, &mut rt, |c, retry| {
                c.query_retry(sub_req, retry)
            });
            match got {
                Ok(partial) => partials.push(partial),
                Err(e) => {
                    failed = Some((si, e));
                    break;
                }
            }
        }
        self.instruments.fanout.record(contacted.len() as u64);
        let frames = match failed {
            Some((si, e)) => {
                self.instruments.errors.inc();
                vec![error_frame(id, &slices[si], e)]
            }
            None => {
                let merge_start = self.trace_clock.now_ns();
                let merged = merge_results(partials).expect("epochs() never returns zero slices");
                self.span(&mut rt, names::SPAN_MERGE, merge_start, slices.len());
                self.instruments.completed(if replay_d.is_some() {
                    "replay"
                } else {
                    "time_windows"
                });
                RemoteResult { trace, ..merged }.to_frames(id)
            }
        };
        let errored = matches!(frames.first(), Some(Frame::Error { .. }));
        self.close_trace(rt, errored);
        frames
    }

    /// Route a queue-monitor query: a single instant lives in a single
    /// epoch, so this is pure failover with passthrough.
    fn route_monitor(
        &self,
        id: u64,
        port: u16,
        at: u64,
        trace: Option<TraceContext>,
    ) -> Vec<Frame> {
        let mut rt = self.open_trace(trace);
        let epoch = epoch_of(at, self.config.epoch_ns);
        let mut contacted = BTreeSet::new();
        let got = self.shard_call(port, epoch, &mut contacted, &mut rt, |c, retry| {
            c.queue_monitor_retry(port, at, retry)
        });
        self.instruments.fanout.record(contacted.len() as u64);
        let frames = match got {
            Ok(mon) => {
                self.instruments.completed("queue_monitor");
                RemoteMonitor { trace, ..mon }.to_frames(id)
            }
            Err(e) => {
                self.instruments.errors.inc();
                let slice = EpochSlice {
                    epoch,
                    from: at,
                    to: at,
                };
                vec![error_frame(id, &slice, e)]
            }
        };
        let errored = matches!(frames.first(), Some(Frame::Error { .. }));
        self.close_trace(rt, errored);
        frames
    }

    /// Route an RTT query: slice, scatter, merge. Backends are asked for
    /// *untruncated* reports (`max_flows: 0`) so the per-flow cap is
    /// applied exactly once, here, after the merge — otherwise a flow
    /// that is slow in aggregate but below the cut on every individual
    /// shard would vanish from the routed answer. The canonical,
    /// order-independent [`RttReport::merge`] keeps the single-partial
    /// path bit-identical to the backend's own encoding.
    fn route_rtt(
        &self,
        id: u64,
        port: u16,
        from: u64,
        to: u64,
        max_flows: u32,
        trace: Option<TraceContext>,
    ) -> Vec<Frame> {
        let mut rt = self.open_trace(trace);
        let slices = epochs(from, to, self.config.epoch_ns);
        let mut contacted = BTreeSet::new();
        let mut partials = Vec::with_capacity(slices.len());
        let mut failed: Option<(usize, ClientError)> = None;
        for (si, slice) in slices.iter().enumerate() {
            let got = self.shard_call(port, slice.epoch, &mut contacted, &mut rt, |c, retry| {
                c.rtt_retry(port, slice.from, slice.to, 0, retry)
            });
            match got {
                Ok(partial) => partials.push(partial),
                Err(e) => {
                    failed = Some((si, e));
                    break;
                }
            }
        }
        self.instruments.fanout.record(contacted.len() as u64);
        let frames = match failed {
            Some((si, e)) => {
                self.instruments.errors.inc();
                vec![error_frame(id, &slices[si], e)]
            }
            None => {
                let merge_start = self.trace_clock.now_ns();
                let mut merged = RttReport::empty(port);
                for p in &partials {
                    merged.merge(&p.report);
                }
                self.instruments.rtt_merges.inc();
                let dropped = merged.truncate_flows(max_flows as usize);
                let degraded = merged.degraded() || dropped > 0;
                self.span(&mut rt, names::SPAN_RTT_MERGE, merge_start, partials.len());
                self.instruments.completed("rtt");
                let answer = RemoteRtt {
                    report: merged,
                    degraded,
                    trace,
                };
                answer.to_frames(id)
            }
        };
        let errored = matches!(frames.first(), Some(Frame::Error { .. }));
        self.close_trace(rt, errored);
        frames
    }

    /// Route a profile dump: fan to **every** live backend in parallel,
    /// decode each dump, and merge. `ProfileReport::merge` is
    /// associative and commutative and `encode` is canonical, so the
    /// routed bytes equal a client-side merge of the per-backend dumps
    /// folded in any order. The router's own profile is deliberately
    /// excluded — ask the router address with `pqsim prof` for fleet
    /// numbers and a backend address for per-process ones; mixing the
    /// two in one report would make the identity above unfalsifiable.
    /// Quarantined backends are skipped, and a reachable backend
    /// failing mid-dump is dropped from the merge; the request errors
    /// only when *no* backend answered.
    fn route_profile_dump(&self, id: u64) -> Vec<Frame> {
        let results: Vec<Result<pq_prof::ProfileReport, ClientError>> = thread::scope(|s| {
            let handles: Vec<_> = (0..self.backends.len())
                .filter(|&bi| !self.backends[bi].quarantined.load(Ordering::SeqCst))
                .map(|bi| s.spawn(move || self.sub_call(bi, |client| client.profile_dump())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("prof fan thread panicked"))
                .collect()
        });
        self.instruments.fanout.record(results.len() as u64);
        let mut merged = pq_prof::ProfileReport::default();
        let mut answered = 0usize;
        let mut last_err: Option<ClientError> = None;
        for r in results {
            match r {
                Ok(p) => {
                    merged.merge(&p);
                    answered += 1;
                }
                Err(e) => last_err = Some(e),
            }
        }
        if answered == 0 {
            self.instruments.errors.inc();
            let msg = match last_err {
                Some(e) => format!("no backend answered the profile dump: {e}"),
                None => "no live backend to profile".to_string(),
            };
            return vec![Frame::error(id, ErrorCode::Io, &msg)];
        }
        profile_frames(id, &merged.encode())
    }

    /// Route a standing query: fan a *stripped* copy (no predicate, no
    /// top-k) to **every** backend, merge each window's partials
    /// associatively, and evaluate the predicate on the merged
    /// aggregate. Stripping is what makes the answer correct — a
    /// shard-local predicate would miss hotspots only the union crosses
    /// the threshold on. And unlike one-shot queries there is no
    /// replica dedupe: live register state is per-daemon, so every
    /// backend is an independent data owner whose partial the merge
    /// needs.
    #[allow(clippy::too_many_arguments)]
    fn route_standing(
        &self,
        conn: &Arc<Conn>,
        id: u64,
        cap: u32,
        max_windows: u32,
        stop_after_seal: bool,
        query: &str,
        trace: Option<TraceContext>,
    ) {
        let parsed = match pq_stream::parse(query) {
            Ok(q) => q,
            Err(e) => {
                let _ = conn.send(&[Frame::error(id, ErrorCode::BadQuery, &e.to_string())]);
                return;
            }
        };
        let Some(mut emitter) = Emitter::ack(conn, id, &parsed, cap, max_windows, trace) else {
            return;
        };
        self.instruments.req_standing.inc();
        let mut rt = self.open_trace(trace);
        let child = rt.as_ref().map(RequestTrace::child);
        let mut stripped = parsed.clone();
        stripped.predicate = None;
        stripped.top_k = None;
        let stripped_text = stripped.to_string();
        let stripped_text = stripped_text.as_str();
        // `None` marks a backend that failed mid-stream: its windows may
        // be missing, so every merged window is degraded.
        let partials: Vec<Option<StandingPartial>> = thread::scope(|s| {
            let handles: Vec<_> = (0..self.backends.len())
                .map(|bi| s.spawn(move || self.fan_standing(bi, stripped_text, child)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().ok().flatten())
                .collect()
        });
        self.instruments.fanout.record(self.backends.len() as u64);
        let merge_start = self.trace_clock.now_ns();
        let any_dead = partials.iter().any(Option::is_none);
        if any_dead {
            self.instruments.errors.inc();
        }
        let live: Vec<&StandingPartial> = partials.iter().flatten().collect();
        // Watermark gate: a merged window may be emitted only once every
        // live backend's watermark has passed its end — the routed
        // mirror of the single-node close rule. Backends seal their
        // bounded source, so the gate is terminal in practice; dead
        // backends are excluded (their windows emit degraded instead of
        // never).
        let gate = live.iter().map(|p| p.watermark).min().unwrap_or(0);
        let mut keys: Vec<(u16, u64, u64)> = live
            .iter()
            .flat_map(|p| p.windows.keys().copied())
            .collect();
        keys.sort_by_key(|&(port, from, to)| (to, from, port));
        keys.dedup();
        for (port, from, to) in keys.into_iter().filter(|&(_, _, to)| to <= gate) {
            // Merge the window's partials in backend order, then run the
            // predicate on the merged aggregate.
            let mut close = Closed {
                key: WindowKey { port, from, to },
                ..Closed::default()
            };
            let mut flows = emitter.summary();
            let (mut evictions, mut evicted_weight) = (0u64, 0.0f64);
            let (mut degraded, mut gaps) = (any_dead, Vec::new());
            for w in live.iter().filter_map(|p| p.windows.get(&(port, from, to))) {
                close.agg.merge(&DepthAgg {
                    max: w.max,
                    min: w.min,
                    sum: w.sum,
                    count: w.count,
                    last_t: w.last_t,
                    last_depth: w.last_depth,
                });
                close.rtt.merge(&w.rtt);
                let mut part = emitter.summary();
                for (f, c) in &w.flows {
                    part.offer(f.0, *c);
                }
                flows.merge(&part);
                evictions += w.evictions + part.evictions;
                evicted_weight += w.evicted_weight + part.evicted_weight;
                degraded |= w.degraded;
                close.forced |= w.forced;
                gaps.extend(w.gaps.iter().cloned());
            }
            close.fired = parsed.fires(&close.agg, &close.rtt);
            let result = StreamResult {
                degraded,
                evictions,
                evicted_weight,
                gaps: normalize_gaps(gaps),
                ..window_result(&close, gate)
            };
            if !emitter.window(result, &flows) {
                break;
            }
        }
        emitter.seal(stop_after_seal, gate);
        self.span(
            &mut rt,
            names::SPAN_MERGE,
            merge_start,
            emitter.frame_count(),
        );
        self.close_trace(rt, any_dead);
        self.standing.register(conn, emitter, gate);
    }

    /// One backend's leg of a routed standing query: a dedicated
    /// connection (subscriptions are stateful, so the pool is not
    /// used), registered with `stop_after_seal` so the stream ends once
    /// the backend's bounded source is exhausted. The io timeout bounds
    /// every read, so a wedged backend surfaces as a dead (`None`)
    /// partial instead of hanging the fan-in.
    fn fan_standing(
        &self,
        bi: usize,
        query: &str,
        trace: Option<TraceContext>,
    ) -> Option<StandingPartial> {
        let run = || -> Result<StandingPartial, ClientError> {
            let mut client = self.dial(&self.backends[bi])?;
            client.set_trace_context(trace);
            let ack = client.standing(query, ENTRIES_PER_FRAME as u32, 0, true)?;
            let mut partial = StandingPartial::default();
            loop {
                let r = client.next_stream_result(ack.sub)?;
                partial.watermark = partial.watermark.max(r.watermark_ns);
                let last = r.last;
                if r.to != 0 {
                    partial.windows.insert((r.port, r.from, r.to), r);
                }
                if last {
                    return Ok(partial);
                }
            }
        };
        match run() {
            Ok(partial) => {
                self.note_success(bi);
                Some(partial)
            }
            Err(e) => {
                if transient(&e) {
                    self.note_failure(bi);
                }
                None
            }
        }
    }
}

/// A bound, not-yet-running router.
pub struct Router {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A handle to a router running on a background thread.
pub struct RouterHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    join: thread::JoinHandle<io::Result<()>>,
}

impl RouterHandle {
    /// The bound address (useful with `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the router, blocking until it has exited.
    pub fn shutdown(self) -> io::Result<()> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.standing.drain();
        self.shared.front.close_all();
        self.join.join().expect("router thread panicked")
    }
}

impl Router {
    /// Bind `addr` in front of `backends`. Fails fast on an empty or
    /// duplicate-named fleet — rendezvous scores hash names, so
    /// duplicates would silently halve the replica set.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        backends: Vec<BackendSpec>,
        config: RouterConfig,
        plane: &Telemetry,
    ) -> io::Result<Router> {
        if backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one backend",
            ));
        }
        let mut names: Vec<&str> = backends.iter().map(|b| b.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != backends.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "backend names must be unique (they are the shard identities)",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let instruments = Instruments::resolve(plane);
        let front = Front::new(
            config.max_conns,
            config.retry_after_ms,
            instruments.shed.clone(),
            None,
            plane,
            names::ROUTER_REQUESTS,
            "pq-router-conn",
        );
        let reg = plane.registry();
        let backends = backends
            .into_iter()
            .map(|spec| Backend {
                latency: reg.histogram(names::ROUTER_BACKEND_NS, &[("backend", &spec.name)]),
                spec,
                failures: AtomicU32::new(0),
                quarantined: AtomicBool::new(false),
                pool: Mutex::new(Vec::new()),
            })
            .collect();
        Ok(Router {
            listener,
            shared: Arc::new(Shared {
                config,
                backends,
                generation: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                front,
                standing: Subscriptions::new(Gauge::default()),
                instruments,
                started: Instant::now(),
                trace_clock: TraceClock::new(),
            }),
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the accept loop on this thread until shutdown.
    pub fn run(self) -> io::Result<()> {
        let shared = self.shared;
        let prober = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("pq-router-probe".into())
                .spawn(move || probe_loop(&shared))?
        };
        let served = front::serve(&self.listener, &shared);
        // Stopping, however the accept loop ended: close every routed
        // subscription with its final `last` frame before the connections
        // go, then wake the prober from its wait.
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.standing.drain();
        shared.front.close_all();
        prober.thread().unpark();
        let _ = prober.join();
        served
    }

    /// Run on a background thread, returning a shutdown handle.
    pub fn spawn(self) -> io::Result<RouterHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let join = thread::Builder::new()
            .name("pq-router-acceptor".into())
            .spawn(move || self.run())?;
        Ok(RouterHandle { shared, addr, join })
    }
}

/// The probe loop: health-check quarantined backends and readmit the
/// ones that answer again. Uses the same inline `HealthReq` the serve
/// daemon guarantees to answer even under full load, so a merely-busy
/// backend comes back as soon as it can speak.
///
/// Between rounds it waits out `probe_interval` parked, so shutdown
/// ([`Router::run`] unparks it) ends the wait at once.
fn probe_loop(shared: &Arc<Shared>) {
    let stopping = || shared.shutdown.load(Ordering::SeqCst);
    while !stopping() {
        let interval = shared.config.probe_interval;
        let round = Instant::now().checked_add(interval);
        // `park_timeout` may return early, so wait again until the round
        // is due or shutdown begins.
        loop {
            let left = round.map_or(interval, |r| r.saturating_duration_since(Instant::now()));
            if stopping() || left.is_zero() {
                break;
            }
            thread::park_timeout(left);
        }
        for backend in &shared.backends {
            if !backend.quarantined.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst)
            {
                continue;
            }
            let alive = probe(shared, backend);
            if alive && backend.quarantined.swap(false, Ordering::SeqCst) {
                backend.failures.store(0, Ordering::SeqCst);
                shared.instruments.readmissions.inc();
                shared.refresh_quarantined_gauge();
                shared.generation.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

fn probe(shared: &Arc<Shared>, backend: &Backend) -> bool {
    let Ok(mut client) = shared.dial(backend) else {
        return false;
    };
    match client.health() {
        Ok(health) => !health.draining,
        Err(_) => false,
    }
}

/// The router behind the shared front: requests are handled synchronously
/// — the scatter-gather for one query runs on its connection's thread.
impl Handler for Shared {
    fn front(&self) -> &Front {
        &self.front
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The router's own health. `workers` is repurposed as the backend
    /// count and `busy_workers` as the quarantined count — the two
    /// numbers an operator watching a router actually needs.
    fn health(&self) -> HealthInfo {
        let snap = self.instruments.plane.snapshot();
        let (version, commit) = provenance::build_info(&snap)
            .unwrap_or_else(|| ("unknown".to_string(), "unknown".to_string()));
        let quarantined = self
            .backends
            .iter()
            .filter(|b| b.quarantined.load(Ordering::SeqCst))
            .count();
        HealthInfo {
            uptime_ns: self.now_ns(),
            workers: self.backends.len() as u32,
            busy_workers: quarantined as u32,
            queue_depth: 0,
            queue_cap: 0,
            active_conns: self.front.active_conns() as u32,
            max_conns: self.config.max_conns as u32,
            draining: self.shutdown.load(Ordering::SeqCst),
            version,
            commit,
            shard: "router".to_string(),
        }
    }

    fn shard_map(&self) -> ShardMap {
        ShardMap {
            generation: self.generation.load(Ordering::SeqCst),
            replication: self.config.replication,
            epoch_ns: self.config.epoch_ns,
            backends: self
                .backends
                .iter()
                .map(|b| ShardMapEntry {
                    shard: b.spec.name.clone(),
                    addr: b.spec.addr.clone(),
                    healthy: !b.quarantined.load(Ordering::SeqCst),
                })
                .collect(),
        }
    }

    fn dispatch(&self, conn: &Arc<Conn>, frame: Frame) {
        match frame {
            Frame::Request { id, req, trace } => {
                let frames = match req {
                    Request::QueueMonitor { port, at } => self.route_monitor(id, port, at, trace),
                    Request::Rtt {
                        port,
                        from,
                        to,
                        max_flows,
                    } => self.route_rtt(id, port, from, to, max_flows, trace),
                    other => self.route_query(id, other, trace),
                };
                let _ = conn.send(&frames);
            }
            Frame::ProfileDumpReq { id } => {
                let _ = conn.send(&self.route_profile_dump(id));
            }
            Frame::MetricsReq { id } => {
                let text = to_prometheus(&self.instruments.plane.snapshot());
                let _ = conn.send(&[Frame::MetricsText { id, text }]);
            }
            Frame::MetricsGet { id } => {
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
            } => self.route_standing(conn, id, cap, max_windows, stop_after_seal, &query, trace),
            Frame::StandingQueryCancel { id, sub } => self.standing.cancel(conn, id, sub),
            other => unreachable!("the front answers {other:?} itself"),
        }
    }
}
