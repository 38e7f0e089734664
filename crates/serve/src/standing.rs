//! Standing-query emission, shared by the daemon and the router.
//!
//! Both tiers answer a standing query in one pass when it registers (the
//! daemon over its checkpoint log, the router over its backends' merged
//! partials) and turn each closed window into a frame with an
//! [`Emitter`]. [`Subscriptions`] sends the frames and keeps a stream
//! that has not ended until a cancel or a shutdown drain sends its final
//! `last` frame.

use crate::front::Conn;
use crate::wire::{ErrorCode, Frame, StreamResult, ENTRIES_PER_FRAME};
use pq_packet::FlowId;
use pq_stream::{Closed, Emit, Query, TopKSummary};
use pq_telemetry::{Gauge, TraceContext};
use std::sync::{Arc, Mutex, Weak};

/// A closed window's result before its caveats: the key, verdict and
/// aggregates, `degraded` only if the close was forced.
pub fn window_result(close: &Closed, watermark_ns: u64) -> StreamResult {
    StreamResult {
        port: close.key.port,
        from: close.key.from,
        to: close.key.to,
        fired: close.fired,
        forced: close.forced,
        degraded: close.forced,
        max: close.agg.max,
        min: close.agg.min,
        sum: close.agg.sum,
        count: close.agg.count,
        last_t: close.agg.last_t,
        last_depth: close.agg.last_depth,
        rtt: close.rtt,
        ..StreamResult::progress(0, watermark_ns, false)
    }
}

/// A window-less final frame at the subscription's watermark.
fn last_frame(id: u64, seq: u64, watermark_ns: u64) -> Frame {
    let result = Box::new(StreamResult::progress(seq, watermark_ns, true));
    Frame::StandingQueryResult { id, result }
}

/// One subscription's result frames, numbered in order.
pub struct Emitter {
    id: u64,
    emit: Emit,
    top_k: Option<u32>,
    summary_cap: usize,
    seq: u64,
    /// Fired windows left before the stream ends (`None` = unbounded).
    fired_left: Option<u64>,
    frames: Vec<Frame>,
    ended: bool,
}

impl Emitter {
    /// Ack subscription `id` with the canonical text of `query` and the
    /// clamped flow cap, so the client knows exactly what was registered.
    /// The stream ends after `max_windows` fired windows (0 = never).
    /// `None` if the ack could not be sent.
    pub fn ack(
        conn: &Conn,
        id: u64,
        query: &Query,
        cap: u32,
        max_windows: u32,
        trace: Option<TraceContext>,
    ) -> Option<Emitter> {
        let cap = (cap as usize).clamp(1, ENTRIES_PER_FRAME);
        let query_text = query.to_string();
        let ack = Frame::StandingQueryAck {
            id,
            cap: cap as u32,
            query: query_text,
            trace,
        };
        conn.send(&[ack]).ok()?;
        Some(Emitter {
            id,
            emit: query.emit,
            top_k: query.top_k,
            summary_cap: query.summary_cap(cap),
            seq: 0,
            fired_left: (max_windows > 0).then(|| u64::from(max_windows)),
            frames: Vec::new(),
            ended: false,
        })
    }

    /// An empty flow summary at this subscription's cap.
    pub fn summary(&self) -> TopKSummary {
        TopKSummary::new(self.summary_cap)
    }

    /// Frames emitted so far.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Whether a window with this verdict names its flows.
    pub fn wants_flows(&self, fired: bool) -> bool {
        fired && self.emit == Emit::Flows
    }

    /// Emit one closed window: a fired window names its top flows from
    /// `flows`, whose evictions add to `result`'s and degrade it, and
    /// counts against the budget. Returns `false` once the budget has
    /// ended the stream: feed no more windows.
    pub fn window(&mut self, mut result: StreamResult, flows: &TopKSummary) -> bool {
        self.seq += 1;
        result.seq = self.seq;
        result.evictions += flows.evictions;
        result.evicted_weight += flows.evicted_weight;
        result.degraded |= result.evictions > 0;
        if self.wants_flows(result.fired) {
            let ranked = flows.ranked(self.top_k).into_iter();
            result.flows = ranked.map(|(f, c)| (FlowId(f), c)).collect();
        }
        if let (true, Some(left)) = (result.fired, &mut self.fired_left) {
            *left -= 1;
            result.last = *left == 0;
            self.ended = result.last;
        }
        self.frames.push(Frame::StandingQueryResult {
            id: self.id,
            result: Box::new(result),
        });
        !self.ended
    }

    /// End the pass over a sealed source: with `stop_after_seal`, a stream
    /// its budget has not ended gets its final frame now.
    pub fn seal(&mut self, stop_after_seal: bool, watermark_ns: u64) {
        if stop_after_seal && !self.ended {
            self.seq += 1;
            self.frames
                .push(last_frame(self.id, self.seq, watermark_ns));
            self.ended = true;
        }
    }
}

/// A subscription whose windows were all sent; only its `last` frame is
/// still owed.
struct Open {
    conn: Weak<Conn>,
    id: u64,
    seq: u64,
    watermark_ns: u64,
}

#[derive(Default)]
struct Registry {
    open: Vec<Open>,
    /// Set by a drain: a registration finishing later ends at once.
    drained: bool,
}

/// The standing subscriptions a process still owes a final frame, counted
/// on a gauge.
pub struct Subscriptions {
    registry: Mutex<Registry>,
    gauge: Gauge,
}

impl Subscriptions {
    /// An empty registry counted on `gauge`.
    pub fn new(gauge: Gauge) -> Subscriptions {
        let registry = Mutex::new(Registry::default());
        Subscriptions { registry, gauge }
    }

    /// Subscriptions currently open.
    pub fn count(&self) -> usize {
        self.registry.lock().unwrap().open.len()
    }

    /// Send a registration pass's frames and, unless the stream ended,
    /// keep the subscription for a later cancel; returns the frame count.
    /// Sending under the lock orders the frames before a drain's.
    pub fn register(&self, conn: &Arc<Conn>, mut emitter: Emitter, watermark_ns: u64) -> usize {
        let mut registry = self.registry.lock().unwrap();
        if registry.drained {
            emitter.seal(true, watermark_ns);
        }
        let sent = emitter.frames.is_empty() || conn.send(&emitter.frames).is_ok();
        if sent && !emitter.ended {
            registry.open.retain(|o| o.conn.strong_count() > 0);
            registry.open.push(Open {
                conn: Arc::downgrade(conn),
                id: emitter.id,
                seq: emitter.seq,
                watermark_ns,
            });
            self.gauge.set(registry.open.len() as u64);
        }
        emitter.frames.len()
    }

    /// Answer `StandingQueryCancel{id, sub}`: the subscription's final
    /// frame, or a `Protocol` error if `conn` has no open subscription
    /// `sub`.
    pub fn cancel(&self, conn: &Arc<Conn>, id: u64, sub: u64) {
        let mut registry = self.registry.lock().unwrap();
        let mine =
            |o: &Open| o.id == sub && o.conn.upgrade().is_some_and(|c| Arc::ptr_eq(&c, conn));
        let frame = match registry.open.iter().position(mine) {
            Some(pos) => {
                let o = registry.open.remove(pos);
                last_frame(o.id, o.seq + 1, o.watermark_ns)
            }
            None => Frame::error(id, ErrorCode::Protocol, "unknown standing subscription"),
        };
        self.gauge.set(registry.open.len() as u64);
        drop(registry);
        let _ = conn.send(&[frame]);
    }

    /// Forget every subscription without a final frame (a kill).
    pub fn clear(&self) {
        self.registry.lock().unwrap().open.clear();
        self.gauge.set(0);
    }

    /// Send every subscription its final frame; later registrations end
    /// at once.
    pub fn drain(&self) {
        let mut registry = self.registry.lock().unwrap();
        registry.drained = true;
        for o in registry.open.drain(..) {
            if let Some(conn) = o.conn.upgrade() {
                let _ = conn.send(&[last_frame(o.id, o.seq + 1, o.watermark_ns)]);
            }
        }
        self.gauge.set(0);
    }
}
