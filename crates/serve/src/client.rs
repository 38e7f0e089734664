//! The query client: a thin, blocking connection speaking the §[`wire`]
//! protocol.
//!
//! The client reassembles streamed response frames (through
//! [`crate::answer`]) into the same shapes the in-process query paths
//! return (`FlowEstimates`, coverage gaps, degraded flags), so
//! `pqsim query --remote` can print byte-identical output through the
//! same formatting code as local queries. Flow values arrive as raw
//! `f64` bits, so nothing is lost in transit.
//!
//! Every request is one exchange: send, then read frames through the one
//! routine that judges response ids, `Busy` and `Error`.

use crate::answer::{self, unexpected, MetricsUpdate, RemoteMonitor, RemoteResult, RemoteRtt};
use crate::wire::{
    self, ErrorCode, Frame, HealthInfo, Request, ShardMap, StreamResult, WireError, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use pq_core::control::CoverageGap;
use pq_telemetry::{Trace, TraceContext};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Bounded retry with full jitter for `Busy{retry_after}` responses.
///
/// A server sheds load with an explicit backoff hint; honoring it is the
/// difference between a retry storm and a polite client. The policy is
/// opt-in: [`Client::query`] still surfaces [`ClientError::Busy`] raw,
/// while [`Client::query_retry`] (and the router's failover path) sleep a
/// jittered, capped backoff and try again a bounded number of times.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = behave like no policy).
    pub max_retries: u32,
    /// Floor for the backoff base when the server's hint is 0 (ms).
    pub base_ms: u64,
    /// Backoff ceiling per attempt (ms).
    pub cap_ms: u64,
    /// Jitter rng seed, so tests are deterministic.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_ms: 10,
            cap_ms: 500,
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (1-based): full jitter in
    /// `[0, min(cap, max(hint, base) << (attempt-1))]`.
    pub fn backoff_ms(&self, attempt: u32, hint_ms: u32, rng: &mut SmallRng) -> u64 {
        let base = u64::from(hint_ms).max(self.base_ms);
        let ceiling = base
            .saturating_shl(attempt.saturating_sub(1).min(16))
            .min(self.cap_ms);
        rng.gen_range(0..=ceiling)
    }
}

/// `u64::checked_shl` with saturation instead of `None`.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

/// Everything that can go wrong on the client side of a query.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(io::Error),
    /// The peer violated framing (bad length prefix, malformed body).
    Wire(WireError),
    /// The peer broke the protocol above the framing layer (wrong frame
    /// order, mismatched request id, inconsistent totals).
    Protocol(String),
    /// The server shed this request (or refused the connection); retry
    /// after the hinted backoff.
    Busy {
        /// Server-suggested backoff before retrying.
        retry_after_ms: u32,
    },
    /// The server answered with a typed error frame.
    Remote {
        /// The typed failure code.
        code: ErrorCode,
        /// Human-readable detail (may be empty).
        message: String,
        /// Coverage-gap summary for the unanswered interval, so degraded
        /// -query semantics survive server-side failures.
        gaps: Vec<CoverageGap>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server busy, retry after {retry_after_ms} ms")
            }
            ClientError::Remote {
                code,
                message,
                gaps,
            } => {
                write!(f, "server error: {code}")?;
                if !message.is_empty() {
                    write!(f, ": {message}")?;
                }
                if !gaps.is_empty() {
                    write!(f, " ({} unanswered gap(s))", gaps.len())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        match e {
            WireError::Io(e) => ClientError::Io(e),
            other => ClientError::Wire(other),
        }
    }
}

/// The server's acknowledgment of a standing-query registration.
#[derive(Debug, Clone)]
pub struct StandingAck {
    /// Subscription id; every result frame arrives tagged with it.
    pub sub: u64,
    /// Effective per-window flow cap after server-side clamping.
    pub cap: u32,
    /// Canonical rendering of the query as the server parsed it.
    pub query: String,
    /// The trace context echoed by the server (iff the request carried
    /// one); a sampled context makes the daemon record its
    /// `window_close` and `emit` spans.
    pub trace: Option<TraceContext>,
}

/// A connected, handshaken query client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame: u32,
    next_id: u64,
    /// Trace context attached to outgoing requests (see
    /// [`set_trace_context`](Self::set_trace_context)).
    trace: Option<TraceContext>,
}

/// The one retry loop: run `call` (handed the attempt number, 0 first),
/// and on `Busy{retry_after}` sleep a jittered, capped backoff honoring
/// the server's hint, up to `policy.max_retries` times. Any other outcome
/// is returned immediately; exhausting the budget returns the final
/// `Busy`.
fn retry<T>(
    policy: &RetryPolicy,
    seed: u64,
    mut call: impl FnMut(u32) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut attempt = 0;
    loop {
        match call(attempt) {
            Err(ClientError::Busy { retry_after_ms }) if attempt < policy.max_retries => {
                attempt += 1;
                let ms = policy.backoff_ms(attempt, retry_after_ms, &mut rng);
                std::thread::sleep(Duration::from_millis(ms));
            }
            other => return other,
        }
    }
}

impl Client {
    /// Connect and handshake. Returns [`ClientError::Busy`] if the server
    /// refused the connection at its accept cap.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Client::handshake(TcpStream::connect(addr)?)
    }

    /// Like [`connect`](Self::connect), but with a bound on connection
    /// establishment and on every subsequent read/write. A dead or
    /// wedged peer surfaces as [`ClientError::Io`] (`TimedOut`/
    /// `WouldBlock`) instead of hanging the caller — the property the
    /// router's failover path depends on.
    pub fn connect_timeout(
        addr: &std::net::SocketAddr,
        connect: Duration,
        io: Duration,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect_timeout(addr, connect)?;
        stream.set_read_timeout(Some(io))?;
        stream.set_write_timeout(Some(io))?;
        Client::handshake(stream)
    }

    /// Connect with bounded retry for accept-time `Busy` refusals (the
    /// connection cap sheds before the handshake, so retrying means
    /// reconnecting).
    pub fn connect_retry<A: ToSocketAddrs + Copy>(
        addr: A,
        policy: &RetryPolicy,
    ) -> Result<Client, ClientError> {
        retry(policy, policy.seed, |_| Client::connect(addr))
    }

    fn handshake(stream: TcpStream) -> Result<Client, ClientError> {
        stream.set_nodelay(true).ok();
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            max_frame: MAX_FRAME_LEN,
            next_id: 1,
            trace: None,
        };
        client.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            max_frame: MAX_FRAME_LEN,
        })?;
        // The handshake frames carry no id, which is what connection-level
        // refusals (an accept-time `Busy`, a rejected `Hello`) carry too.
        match client.recv(0, 0) {
            Ok(Frame::HelloAck { version, max_frame }) if version == PROTOCOL_VERSION => {
                client.max_frame = max_frame.min(MAX_FRAME_LEN);
                Ok(client)
            }
            Ok(Frame::HelloAck { version, .. }) => Err(ClientError::Protocol(format!(
                "server negotiated unsupported version {version}"
            ))),
            Ok(other) => Err(unexpected("HelloAck", &other)),
            Err(ClientError::Remote { code, message, .. }) => Err(ClientError::Protocol(format!(
                "handshake rejected: {code}: {message}"
            ))),
            Err(e) => Err(e),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        wire::write_frame(&mut self.writer, frame)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Read the next frame of the exchange running under `id` (or under
    /// `also`, for the one exchange that spans two ids). This is the one
    /// place a response's id, `Busy` and `Error` are judged: id 0 marks a
    /// connection-level shed or failure and is accepted for any exchange;
    /// every other frame must carry the exchange's id. `Busy` becomes
    /// [`ClientError::Busy`] and `Error` [`ClientError::Remote`], typed
    /// code and gaps intact, whatever the method that was waiting.
    fn recv(&mut self, id: u64, also: u64) -> Result<Frame, ClientError> {
        let frame = wire::read_frame(&mut self.reader, self.max_frame)?;
        let got = frame.id();
        let ours = got == id || got == also;
        match frame {
            Frame::Busy { retry_after_ms, .. } if ours || got == 0 => {
                Err(ClientError::Busy { retry_after_ms })
            }
            Frame::Error {
                code,
                gaps,
                message,
                ..
            } if ours || got == 0 => Err(ClientError::Remote {
                code,
                message,
                gaps,
            }),
            frame if ours => Ok(frame),
            _ => Err(ClientError::Protocol(format!(
                "response id {got} does not match request id {id}"
            ))),
        }
    }

    /// Send the request `build` makes of a fresh id; return the id and
    /// the head frame of the response.
    fn exchange(&mut self, build: impl FnOnce(u64) -> Frame) -> Result<(u64, Frame), ClientError> {
        let id = self.fresh_id();
        self.send(&build(id))?;
        Ok((id, self.recv(id, id)?))
    }

    /// [`retry`] around one of this client's requests. A `Busy` shed also
    /// force-samples the attached trace context: a request that had to
    /// queue behind an overloaded server is exactly the tail this
    /// instrumentation exists to explain, so the retried attempt (and
    /// every downstream hop) records spans regardless of the
    /// probabilistic sampling decision.
    fn retry_busy<T>(
        &mut self,
        policy: &RetryPolicy,
        mut call: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        retry(policy, policy.seed ^ self.next_id, |attempt| {
            if attempt > 0 {
                if let Some(ctx) = &mut self.trace {
                    ctx.sampled = true;
                }
            }
            call(self)
        })
    }

    /// Attach a trace context to every subsequent request (`None` stops
    /// attaching).
    pub fn set_trace_context(&mut self, ctx: Option<TraceContext>) {
        self.trace = ctx;
    }

    /// The trace context currently attached to outgoing requests.
    pub fn trace_context(&self) -> Option<TraceContext> {
        self.trace
    }

    /// Run a time-window or replay query and reassemble the streamed
    /// answer. Queue-monitor requests must use
    /// [`queue_monitor`](Self::queue_monitor) instead.
    pub fn query(&mut self, req: Request) -> Result<RemoteResult, ClientError> {
        if matches!(req, Request::QueueMonitor { .. }) {
            return Err(ClientError::Protocol(
                "queue-monitor requests use Client::queue_monitor".into(),
            ));
        }
        if matches!(req, Request::Rtt { .. }) {
            return Err(ClientError::Protocol("rtt requests use Client::rtt".into()));
        }
        let trace = self.trace;
        let (id, head) = self.exchange(|id| Frame::Request { id, req, trace })?;
        RemoteResult::from_frames(head, || self.recv(id, id))
    }

    /// Like [`query`](Self::query), but retrying `Busy` sheds under
    /// `policy` (see [`RetryPolicy`]).
    pub fn query_retry(
        &mut self,
        req: Request,
        policy: &RetryPolicy,
    ) -> Result<RemoteResult, ClientError> {
        self.retry_busy(policy, |c| c.query(req))
    }

    /// Run a queue-monitor query and reassemble the streamed answer.
    pub fn queue_monitor(&mut self, port: u16, at: u64) -> Result<RemoteMonitor, ClientError> {
        let (req, trace) = (Request::QueueMonitor { port, at }, self.trace);
        let (id, head) = self.exchange(|id| Frame::Request { id, req, trace })?;
        RemoteMonitor::from_frames(head, || self.recv(id, id))
    }

    /// Like [`queue_monitor`](Self::queue_monitor), retrying `Busy` sheds
    /// under `policy`.
    pub fn queue_monitor_retry(
        &mut self,
        port: u16,
        at: u64,
        policy: &RetryPolicy,
    ) -> Result<RemoteMonitor, ClientError> {
        self.retry_busy(policy, |c| c.queue_monitor(port, at))
    }

    /// Run an RTT query and reassemble + decode the chunked report.
    pub fn rtt(
        &mut self,
        port: u16,
        from: u64,
        to: u64,
        max_flows: u32,
    ) -> Result<RemoteRtt, ClientError> {
        let req = Request::Rtt {
            port,
            from,
            to,
            max_flows,
        };
        let trace = self.trace;
        let (id, head) = self.exchange(|id| Frame::Request { id, req, trace })?;
        RemoteRtt::from_frames(head, || self.recv(id, id))
    }

    /// Like [`rtt`](Self::rtt), retrying `Busy` sheds under `policy`.
    pub fn rtt_retry(
        &mut self,
        port: u16,
        from: u64,
        to: u64,
        max_flows: u32,
        policy: &RetryPolicy,
    ) -> Result<RemoteRtt, ClientError> {
        self.retry_busy(policy, |c| c.rtt(port, from, to, max_flows))
    }

    /// Fetch the server's Prometheus text exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.exchange(|id| Frame::MetricsReq { id })? {
            (_, Frame::MetricsText { text, .. }) => Ok(text),
            (_, other) => Err(unexpected("MetricsText", &other)),
        }
    }

    /// Fetch the server's health summary (answered inline by the server's
    /// reader thread, so it works even when the worker pool is saturated).
    pub fn health(&mut self) -> Result<HealthInfo, ClientError> {
        match self.exchange(|id| Frame::HealthReq { id })? {
            (_, Frame::HealthAck { health, .. }) => Ok(health),
            (_, other) => Err(unexpected("HealthAck", &other)),
        }
    }

    /// Fetch the serving topology (answered inline, like health).
    pub fn shard_map(&mut self) -> Result<ShardMap, ClientError> {
        match self.exchange(|id| Frame::ShardMapReq { id })? {
            (_, Frame::ShardMapAck { map, .. }) => Ok(map),
            (_, other) => Err(unexpected("ShardMapAck", &other)),
        }
    }

    /// Fetch the peer's recently committed traces (newest first), or only
    /// its slowest when `slow_only`. `max` is clamped server-side.
    pub fn trace_dump(&mut self, max: u32, slow_only: bool) -> Result<Vec<Trace>, ClientError> {
        match self.exchange(|id| Frame::TraceDumpReq { id, max, slow_only })? {
            (_, Frame::TraceDumpAck { traces, .. }) => Ok(traces),
            (_, other) => Err(unexpected("TraceDumpAck", &other)),
        }
    }

    /// Fetch the peer's raw encoded profile dump (the `pq-prof`
    /// canonical bytes, reassembled from chunks but not decoded). The
    /// routed-dump byte-identity check compares these bytes directly.
    pub fn profile_dump_bytes(&mut self) -> Result<Vec<u8>, ClientError> {
        let (id, head) = self.exchange(|id| Frame::ProfileDumpReq { id })?;
        answer::profile_from_frames(head, || self.recv(id, id))
    }

    /// Fetch and decode the peer's profile dump. A daemon answers with
    /// its own process profile; a router answers with the merged dump of
    /// all its live backends.
    pub fn profile_dump(&mut self) -> Result<pq_prof::ProfileReport, ClientError> {
        let bytes = self.profile_dump_bytes()?;
        pq_prof::ProfileReport::decode(&bytes)
            .map_err(|e| ClientError::Protocol(format!("profile dump: {e}")))
    }

    /// Fetch one full structured metrics snapshot (`seq` 0, `last` set).
    /// A watcher polls this; comparing two polls with
    /// `pq_telemetry::delta::changed` gives the series that moved.
    pub fn metrics_snapshot(&mut self) -> Result<MetricsUpdate, ClientError> {
        let (id, head) = self.exchange(|id| Frame::MetricsGet { id })?;
        MetricsUpdate::from_frames(head, || self.recv(id, id))
    }

    /// Register a standing continuous query. `query` is the `pq-stream`
    /// text form; `cap` bounds per-window flow state (clamped
    /// server-side); `max_windows == 0` means unbounded, otherwise the
    /// stream ends after that many *fired* windows; `stop_after_seal`
    /// ends it once the source is exhausted and every window has closed.
    /// Fetch results with [`next_stream_result`](Self::next_stream_result)
    /// until one arrives with `last == true`.
    pub fn standing(
        &mut self,
        query: &str,
        cap: u32,
        max_windows: u32,
        stop_after_seal: bool,
    ) -> Result<StandingAck, ClientError> {
        let trace = self.trace;
        let sent = self.exchange(|id| Frame::StandingQueryReq {
            id,
            cap,
            max_windows,
            stop_after_seal,
            query: query.to_string(),
            trace,
        })?;
        match sent {
            (
                sub,
                Frame::StandingQueryAck {
                    cap, query, trace, ..
                },
            ) => Ok(StandingAck {
                sub,
                cap,
                query,
                trace,
            }),
            (_, other) => Err(unexpected("StandingQueryAck", &other)),
        }
    }

    /// Block for the next result on standing subscription `sub`. A
    /// result with `to == 0` is a window-less progress frame (watermark
    /// only); one with `last == true` ends the stream.
    pub fn next_stream_result(&mut self, sub: u64) -> Result<StreamResult, ClientError> {
        match self.recv(sub, sub)? {
            Frame::StandingQueryResult { result, .. } => Ok(*result),
            other => Err(unexpected("StandingQueryResult", &other)),
        }
    }

    /// Cancel standing subscription `sub` and drain the stream to its
    /// final `last == true` frame (results already in flight may precede
    /// it), leaving the connection cleanly framed for further requests.
    pub fn cancel_standing(&mut self, sub: u64) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.send(&Frame::StandingQueryCancel { id, sub })?;
        // Results arrive under `sub`; a refusal arrives under the cancel's
        // own id.
        loop {
            match self.recv(sub, id)? {
                Frame::StandingQueryResult { result, .. } if result.last => return Ok(()),
                Frame::StandingQueryResult { .. } => {}
                other => return Err(unexpected("StandingQueryResult", &other)),
            }
        }
    }

    /// Ask the server to drain and stop. Returns once acknowledged.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.exchange(|id| Frame::ShutdownReq { id })? {
            (_, Frame::ShutdownAck { .. }) => Ok(()),
            (_, other) => Err(unexpected("ShutdownAck", &other)),
        }
    }
}
