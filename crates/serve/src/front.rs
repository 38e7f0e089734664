//! The connection front: everything between `accept()` and a daemon's
//! own request handling, shared by `pq-serve` and `pq-router` so a client
//! cannot tell the two apart before its first query.
//!
//! The front owns the accept loop and the connection cap (refusals are
//! an explicit `Busy{id: 0}` and a bump of the caller's shed counter —
//! never a silent drop), one reader thread per connection, the
//! serialized write half ([`Conn::send`]), the `Hello` handshake, the
//! framed read loop with its error policy (EOF closes quietly; a
//! malformed or oversized frame earns an id-0 `Protocol` error and a
//! close, since the stream is no longer framed), the requests every
//! front answers the same way — each read counted under the tier's own
//! requests family — and the end of a connection when the process stops
//! (a final `Error{id: 0, ShuttingDown}`, then the close). Whatever is
//! specific to the process behind it arrives through [`Handler`]. It is
//! also the one seam a simulated transport would slot in behind.

use crate::wire::{
    self, ErrorCode, Frame, HealthInfo, ShardMap, WireError, MAX_FRAME_LEN, MAX_SPANS_PER_TRACE,
    MAX_TRACES_PER_DUMP, PROTOCOL_VERSION,
};
use pq_telemetry::{Counter, Telemetry};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread;
use std::time::Duration;

/// One accepted connection: the write half (serialized so streamed
/// responses never interleave) and the in-flight request count an
/// admission-controlled handler keeps.
pub struct Conn {
    stream: TcpStream,
    write: Mutex<()>,
    /// Requests queued or executing on this connection.
    pub inflight: AtomicUsize,
}

impl Conn {
    /// Encode `frames` into one buffer and write it atomically with
    /// respect to other responses on this connection.
    pub fn send(&self, frames: &[Frame]) -> io::Result<()> {
        let mut buf = Vec::with_capacity(64);
        for f in frames {
            wire::put_frame(&mut buf, f);
        }
        let _guard = self.write.lock().expect("a connection's writer panicked");
        (&self.stream).write_all(&buf)
    }

    /// Tear the socket down; the connection's reader sees EOF and exits.
    pub fn close(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// The graceful end: tell the peer the process is stopping, then
    /// close. Never waits behind a response another thread is writing, nor
    /// on a peer that stopped reading.
    fn farewell(&self) {
        if let Ok(_guard) = self.write.try_lock() {
            let frame = Frame::error(0, ErrorCode::ShuttingDown, "stopping");
            let mut buf = Vec::with_capacity(32);
            wire::put_frame(&mut buf, &frame);
            let _ = self.stream.set_write_timeout(Some(FAREWELL_TIMEOUT));
            let _ = (&self.stream).write_all(&buf);
        }
        self.close();
    }
}

/// How long a farewell may wait on a full socket buffer.
const FAREWELL_TIMEOUT: Duration = Duration::from_millis(100);

/// The process behind a front.
pub trait Handler: Send + Sync + 'static {
    /// The front state this handler serves connections under.
    fn front(&self) -> &Front;
    /// True once the process is stopping: the accept loop exits.
    fn stopping(&self) -> bool;
    /// A client asked the process to stop (`ShutdownReq`, acked once this
    /// returns).
    fn stop(&self);
    /// The health self-report (answered on the reader thread, so it works
    /// whatever the state of the machinery behind `dispatch`).
    fn health(&self) -> HealthInfo;
    /// The serving topology (answered on the reader thread, like health).
    fn shard_map(&self) -> ShardMap;
    /// Any other client frame: queries, metrics, standing queries, dumps.
    fn dispatch(&self, conn: &Arc<Conn>, frame: Frame);
}

/// A front's limits, counters and live connections.
pub struct Front {
    max_conns: usize,
    retry_after_ms: u32,
    shed: Counter,
    accepted: Option<Counter>,
    req_health: Counter,
    req_shard_map: Counter,
    req_trace_dump: Counter,
    req_metrics: Counter,
    plane: Telemetry,
    thread_name: &'static str,
    active: AtomicUsize,
    conns: Mutex<Vec<Weak<Conn>>>,
}

impl Front {
    /// A front refusing connections beyond `max_conns` with
    /// `Busy{retry_after_ms}`, counting each refusal on `shed` and each
    /// accept on `accepted`, counting the health, shard-map, trace-dump
    /// and metrics reads it sees in `plane`'s `requests` family, answering
    /// trace dumps from `plane`, and naming its reader threads
    /// `thread_name`.
    pub fn new(
        max_conns: usize,
        retry_after_ms: u32,
        shed: Counter,
        accepted: Option<Counter>,
        plane: &Telemetry,
        requests: &str,
        thread_name: &'static str,
    ) -> Front {
        let req = |kind| plane.registry().counter(requests, &[("kind", kind)]);
        Front {
            max_conns,
            retry_after_ms,
            shed,
            accepted,
            req_health: req("health"),
            req_shard_map: req("shard_map"),
            req_trace_dump: req("trace_dump"),
            req_metrics: req("metrics"),
            plane: plane.clone(),
            thread_name,
            active: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
        }
    }

    /// Connections currently open.
    pub fn active_conns(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// End every open connection gracefully — the final
    /// `Error{id: 0, ShuttingDown}`, then the close — releasing reader
    /// threads still blocked on their sockets.
    pub fn close_all(&self) {
        self.open_conns().for_each(|conn| conn.farewell());
    }

    /// Tear every open connection down without a frame, the way a killed
    /// process's sockets end.
    pub fn kill_all(&self) {
        self.open_conns().for_each(|conn| conn.close());
    }

    fn open_conns(&self) -> impl Iterator<Item = Arc<Conn>> {
        let conns = std::mem::take(&mut *self.conns.lock().expect("conn registry poisoned"));
        conns.into_iter().filter_map(|conn| conn.upgrade())
    }
}

/// Accept connections for `handler` on this thread until it is stopping.
pub fn serve<H: Handler>(listener: &TcpListener, handler: &Arc<H>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    while !handler.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => accept(handler, stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Admit a fresh connection: enforce the connection cap, then hand the
/// socket to a reader thread.
fn accept<H: Handler>(handler: &Arc<H>, stream: TcpStream) {
    let front = handler.front();
    if let Some(accepted) = &front.accepted {
        accepted.inc();
    }
    // Responses are small framed writes; Nagle would stall consecutive
    // ones behind delayed ACKs.
    let _ = stream.set_nodelay(true);
    let conn = Arc::new(Conn {
        stream,
        write: Mutex::new(()),
        inflight: AtomicUsize::new(0),
    });
    if front.active_conns() >= front.max_conns {
        front.shed.inc();
        let _ = conn.send(&[Frame::Busy {
            id: 0,
            retry_after_ms: front.retry_after_ms,
        }]);
        conn.close();
        return;
    }
    front.active.fetch_add(1, Ordering::SeqCst);
    front
        .conns
        .lock()
        .expect("conn registry poisoned")
        .push(Arc::downgrade(&conn));
    let handler = Arc::clone(handler);
    let _ = thread::Builder::new()
        .name(front.thread_name.into())
        .spawn(move || {
            let _ = connection(&*handler, &conn);
            conn.close();
            handler.front().active.fetch_sub(1, Ordering::SeqCst);
        });
}

/// Handshake, then parse frames from one connection until EOF or a
/// protocol violation. Blocking reads keep this thread cheap.
fn connection<H: Handler>(handler: &H, conn: &Arc<Conn>) -> io::Result<()> {
    let front = handler.front();
    let refuse = |code, message: &str| -> io::Result<()> {
        let _ = conn.send(&[Frame::error(0, code, message)]);
        Ok(())
    };
    // The socket may inherit the listener's non-blocking mode on some
    // platforms; force blocking for the reader.
    conn.stream.set_nonblocking(false)?;
    let mut read = (&conn.stream).take(u64::MAX); // plain Read adapter
    let max_frame = match wire::read_frame(&mut read, MAX_FRAME_LEN) {
        Ok(Frame::Hello { version: 0, .. }) => return refuse(ErrorCode::Unsupported, "version 0"),
        Ok(Frame::Hello { version, max_frame }) => {
            let version = version.min(PROTOCOL_VERSION);
            let max_frame = max_frame.clamp(1024, MAX_FRAME_LEN);
            conn.send(&[Frame::HelloAck { version, max_frame }])?;
            max_frame
        }
        Ok(_) => return refuse(ErrorCode::Protocol, "expected Hello as the first frame"),
        Err(e) => return refuse(ErrorCode::Protocol, &e.to_string()),
    };
    loop {
        let frame = match wire::read_frame(&mut read, max_frame) {
            Ok(f) => f,
            Err(WireError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(WireError::Io(e)) => return Err(e),
            // Malformed or oversized: the stream is no longer framed;
            // answer (best effort) and close.
            Err(e) => return refuse(ErrorCode::Protocol, &e.to_string()),
        };
        match frame {
            Frame::Hello { .. } => return refuse(ErrorCode::Protocol, "duplicate Hello"),
            frame if frame.tag() >= 0x80 => {
                return refuse(
                    ErrorCode::Protocol,
                    "server-to-client frame received from client",
                )
            }
            Frame::HealthReq { id } => {
                front.req_health.inc();
                let health = handler.health();
                let _ = conn.send(&[Frame::HealthAck { id, health }]);
            }
            Frame::ShardMapReq { id } => {
                front.req_shard_map.inc();
                let map = handler.shard_map();
                let _ = conn.send(&[Frame::ShardMapAck { id, map }]);
            }
            Frame::TraceDumpReq { id, max, slow_only } => {
                // On the reader thread like health: a trace dump is a
                // diagnostic read and must keep working when the process
                // behind the front is saturated — that saturation is
                // usually exactly what the caller is debugging.
                front.req_trace_dump.inc();
                let traces = front.plane.traces();
                let max = (max as usize).clamp(1, MAX_TRACES_PER_DUMP);
                let mut traces = if slow_only {
                    traces.slowest(max)
                } else {
                    let mut recent = traces.recent();
                    recent.reverse(); // newest first
                    recent.truncate(max);
                    recent
                };
                for t in &mut traces {
                    t.spans.truncate(MAX_SPANS_PER_TRACE);
                }
                let _ = conn.send(&[Frame::TraceDumpAck { id, traces }]);
            }
            Frame::ShutdownReq { id } => {
                // Stop before acking: once the ack is out, no request on
                // another connection may still be dispatched.
                handler.stop();
                let _ = conn.send(&[Frame::ShutdownAck { id }]);
            }
            // A stopping process takes no new work. With answers still
            // owed on this connection the handler refuses the frame itself,
            // so none of them is cut off.
            _ if handler.stopping() && conn.inflight.load(Ordering::SeqCst) == 0 => {
                return refuse(ErrorCode::ShuttingDown, "stopping")
            }
            frame => {
                if matches!(frame, Frame::MetricsReq { .. } | Frame::MetricsGet { .. }) {
                    front.req_metrics.inc();
                }
                handler.dispatch(conn, frame)
            }
        }
    }
}
