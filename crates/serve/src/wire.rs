//! The `pq-serve` wire protocol: versioned, length-prefixed binary frames.
//!
//! Every frame on the wire is
//!
//! ```text
//! u32 len (LE)  — length of what follows: the type byte + payload
//! u8  type      — frame discriminant (client frames < 0x80, server ≥ 0x80)
//! …payload      — fixed-width little-endian fields, no padding
//! ```
//!
//! A connection opens with `Hello` / `HelloAck` version negotiation: the
//! client states the highest protocol version it speaks and its receive
//! frame cap; the server answers with `min(client, server)` of each. A
//! server that cannot serve any version the client offered answers with a
//! typed [`ErrorCode::Unsupported`] error and closes.
//!
//! Query responses are **streamed in bounded frames**: a header stating
//! totals, then flow/gap chunks of at most [`ENTRIES_PER_FRAME`] entries,
//! then `ResultEnd`. No single frame ever exceeds [`MAX_FRAME_LEN`], so
//! neither side needs more than one frame of buffer per connection.
//!
//! Decoding is adversarial-input-safe in the `pq-store` `DecodeBudget`
//! tradition: the length prefix is validated against the negotiated cap
//! *before* any allocation, and every collection count inside a frame is
//! validated against the bytes actually present before a `Vec` is sized.
//! Malformed input yields a [`WireError`], never a panic and never an
//! allocation larger than the input itself.
//!
//! Flow estimates travel as raw `f64` bit patterns, so a remote answer is
//! bit-identical to the local one — the CI smoke test diffs the two.
//!
//! Layouts are stated once: every field type has one `Wire` impl (its
//! `put` beside its `get`, hostile-input caps included), and the
//! [`Frame`] table lists each frame's tag and ordered fields. The enum,
//! `encode_body`, `decode_body` and the per-frame unit tests all derive
//! from that table; `tests/data/wire_golden.hex` pins the bytes. The
//! integers, the bounded cursor and the count guard underneath are the
//! workspace's one byte codec, `pq_prof::codec`.

use pq_core::control::CoverageGap;
use pq_packet::FlowId;
use pq_prof::codec::{self, put_u128, put_u16, put_u32, put_u64, Malformed};
use pq_stream::{RttAgg, RTT_BUCKETS};
use pq_telemetry::{BucketExemplar, Trace, TraceContext, TraceSpan, NUM_BUCKETS};
use std::fmt;
use std::io::{self, Read, Write};

/// Highest protocol version this build speaks.
///
/// v2 adds the optional trace-context extension on query frames (and its
/// echo on answer headers), the `TraceDump` message pair, and histogram
/// exemplars inside metric samples. A v2 peer never sends the extension
/// to a v1 peer — the negotiated version gates it — so v1 byte layouts
/// are unchanged.
///
/// v3 removes the metrics subscription: its request and ack frames
/// (tags 0x07 and 0x92) and the subscriber count in [`HealthInfo`].
/// Metrics are read by polling `MetricsGet`.
pub const PROTOCOL_VERSION: u16 = 3;

/// Hard cap on a frame's `len` field (type byte + payload).
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Most collection entries (flows, gaps, monitor counts) per chunk frame.
pub const ENTRIES_PER_FRAME: usize = 512;

/// Most metric samples per `MetricsChunk` frame. Lower than
/// [`ENTRIES_PER_FRAME`] because one sample can carry a full histogram
/// (65 buckets); the worst-case chunk still stays far under
/// [`MAX_FRAME_LEN`].
pub const METRIC_SAMPLES_PER_FRAME: usize = 128;

/// Most label pairs one metric sample may carry on the wire.
pub const MAX_LABELS_PER_SAMPLE: usize = 16;

/// Most backend entries one `ShardMapAck` may carry.
pub const MAX_BACKENDS_PER_MAP: usize = 64;

/// First byte of the optional trace-context extension block.
///
/// The extension is a fixed [`TRACE_EXT_LEN`]-byte trailer after a
/// frame's declared fields: magic, flags (bit 0 = sampled, all other
/// bits must be zero), `trace_id` (u128 LE), parent `span_id` (u64 LE).
/// A frame without the extension encodes zero extra bytes, which is
/// exactly the v1 layout.
pub const TRACE_EXT_MAGIC: u8 = 0x7C;

/// Encoded size of the trace-context extension block.
pub const TRACE_EXT_LEN: usize = 26;

/// Most traces one `TraceDumpAck` may carry.
pub const MAX_TRACES_PER_DUMP: usize = 32;

/// Most payload bytes one `RttChunk` frame may carry. An encoded
/// `pq-rtt` report travels as an opaque byte blob split into chunks of
/// at most this size, keeping every frame far under [`MAX_FRAME_LEN`].
pub const RTT_BYTES_PER_FRAME: usize = 64 * 1024;

/// Cap on the total encoded-report length an [`Frame::RttHeader`] may
/// announce. Bounds the client-side reassembly buffer before any chunk
/// is accepted; a genuine report (flow/sample caps enforced by the
/// `pq-rtt` codec) stays far below this.
pub const MAX_RTT_REPORT_LEN: u32 = 16 << 20;

/// Most payload bytes one `ProfChunk` frame may carry. An encoded
/// `pq-prof` report travels exactly like an RTT report: an opaque byte
/// blob split into bounded chunks, under the one blob-chunk cap.
pub const PROF_BYTES_PER_FRAME: usize = RTT_BYTES_PER_FRAME;

/// Cap on the total encoded-dump length a [`Frame::ProfHeader`] may
/// announce. Matches `pq_prof::MAX_ENCODED_LEN` so a header can never
/// promise more than the codec itself would accept.
pub const MAX_PROF_DUMP_LEN: u32 = 16 << 20;

/// First byte of the optional RTT-aggregate suffix on a
/// [`Frame::StandingQueryResult`]. Like the trace extension, absence
/// encodes zero bytes — a result from a window that saw no RTT samples
/// is byte-identical to the pre-RTT layout.
pub const RTT_SUFFIX_MAGIC: u8 = 0x7E;

/// Most spans one dumped trace may carry.
pub const MAX_SPANS_PER_TRACE: usize = 128;

/// Typed failure codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer violated the framing or sent an unknown frame type.
    Protocol,
    /// Version negotiation failed.
    Unsupported,
    /// The requested port exists in neither the live state nor the archive.
    UnknownPort,
    /// A live-state query reached a server with no live registers loaded.
    NoLiveState,
    /// A replay query reached a server with no archive loaded.
    NoArchive,
    /// The server hit an I/O error executing the query.
    Io,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The query was well-formed but no stored checkpoint can answer it
    /// (e.g. a queue-monitor query before the first poll).
    NoData,
    /// A standing-query text failed to parse or validate; the message
    /// carries the parser's diagnosis.
    BadQuery,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Protocol => 1,
            ErrorCode::Unsupported => 2,
            ErrorCode::UnknownPort => 3,
            ErrorCode::NoLiveState => 4,
            ErrorCode::NoArchive => 5,
            ErrorCode::Io => 6,
            ErrorCode::ShuttingDown => 7,
            ErrorCode::NoData => 8,
            ErrorCode::BadQuery => 9,
        }
    }

    /// Decode a wire error-code value.
    pub fn from_u16(v: u16) -> Result<ErrorCode, WireError> {
        Ok(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Unsupported,
            3 => ErrorCode::UnknownPort,
            4 => ErrorCode::NoLiveState,
            5 => ErrorCode::NoArchive,
            6 => ErrorCode::Io,
            7 => ErrorCode::ShuttingDown,
            8 => ErrorCode::NoData,
            9 => ErrorCode::BadQuery,
            _ => return Err(WireError::Malformed("unknown error code")),
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Protocol => "protocol violation",
            ErrorCode::Unsupported => "unsupported protocol version",
            ErrorCode::UnknownPort => "unknown port",
            ErrorCode::NoLiveState => "no live state loaded",
            ErrorCode::NoArchive => "no archive loaded",
            ErrorCode::Io => "server i/o error",
            ErrorCode::ShuttingDown => "server shutting down",
            ErrorCode::NoData => "no stored checkpoint can answer the query",
            ErrorCode::BadQuery => "bad standing query",
        };
        f.write_str(s)
    }
}

/// A server's health self-report, carried by [`Frame::HealthAck`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthInfo {
    /// Nanoseconds since the daemon started.
    pub uptime_ns: u64,
    /// Configured worker-pool size.
    pub workers: u32,
    /// Workers currently executing a job (utilization numerator).
    pub busy_workers: u32,
    /// Current admission-queue depth.
    pub queue_depth: u32,
    /// Admission-queue capacity.
    pub queue_cap: u32,
    /// Connections currently open.
    pub active_conns: u32,
    /// Connection cap.
    pub max_conns: u32,
    /// True once shutdown has been initiated (draining).
    pub draining: bool,
    /// Build version (`pq_build_info` label; `unknown` if unstamped).
    pub version: String,
    /// Build git commit (`pq_build_info` label; `unknown` if unstamped).
    pub commit: String,
    /// Shard identity this daemon serves under (empty when unsharded).
    pub shard: String,
}

/// One backend entry in a [`ShardMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMapEntry {
    /// Shard identity the backend serves under.
    pub shard: String,
    /// Address the backend listens on.
    pub addr: String,
    /// False while the router holds the backend in quarantine.
    pub healthy: bool,
}

/// The topology a router (or a lone daemon, for itself) answers to a
/// [`Frame::ShardMapReq`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardMap {
    /// Monotone map generation; bumps on quarantine/readmission.
    pub generation: u64,
    /// Owners per shard key.
    pub replication: u32,
    /// Time-epoch width for (port, epoch) shard keys; 0 means a single
    /// epoch, i.e. port-only sharding.
    pub epoch_ns: u64,
    /// The backend set.
    pub backends: Vec<ShardMapEntry>,
}

/// One metric sample inside a [`Frame::MetricsChunk`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireSample {
    /// Metric name.
    pub name: String,
    /// Label pairs (sorted, as snapshots store them).
    pub labels: Vec<(String, String)>,
    /// The value, tagged by kind.
    pub value: WireValue,
}

/// The value half of a [`WireSample`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// Monotonic counter value (absolute).
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram state; `buckets` holds only occupied `(index, count)`
    /// pairs.
    Histogram {
        /// Total samples recorded.
        count: u64,
        /// Sum of all samples.
        sum: u64,
        /// Smallest sample (`u64::MAX` when empty).
        min: u64,
        /// Largest sample (0 when empty).
        max: u64,
        /// Occupied `(bucket index, count)` pairs, index-ascending.
        buckets: Vec<(u8, u64)>,
        /// Per-bucket exemplars: the last `trace_id` observed per
        /// occupied bucket, for alert → trace linkage.
        exemplars: Vec<BucketExemplar>,
    },
}

/// One closed-window answer on a standing-query subscription, carried
/// by [`Frame::StandingQueryResult`]. The depth aggregate travels as
/// the raw `(max, min, sum, count, last_t, last_depth)` integers the
/// window operator maintains — order-independent and mergeable — and
/// flow estimates as raw `f64` bits, keeping the bit-identity contract
/// the one-shot query path already honors.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// Update ordinal on this subscription.
    pub seq: u64,
    /// The subscription's watermark after this close.
    pub watermark_ns: u64,
    pub port: u16,
    /// Window span `[from, to)` in sim nanoseconds.
    pub from: u64,
    pub to: u64,
    /// The query predicate held (or the query has none). Non-fired
    /// closes still travel — the router needs every shard's aggregate
    /// to evaluate the predicate on the merged window — but clients
    /// only print fired ones.
    pub fired: bool,
    /// Closed early by the open-window cap, not the watermark.
    pub forced: bool,
    /// The flow query behind this window saw coverage gaps or the
    /// routed merge lost a shard.
    pub degraded: bool,
    /// Final frame of this subscription (cancel, drain, or the
    /// requested window budget being reached).
    pub last: bool,
    /// Depth aggregate over the window's checkpoint records.
    pub max: u64,
    pub min: u64,
    pub sum: u64,
    pub count: u64,
    pub last_t: u64,
    pub last_depth: u64,
    /// Ranked culprit flows (empty for `emit depth` or non-fired
    /// closes); bounded by the subscription cap, itself capped at
    /// [`ENTRIES_PER_FRAME`].
    pub flows: Vec<(FlowId, f64)>,
    /// Bounded-state evictions this window's summary performed.
    pub evictions: u64,
    /// Upper bound on the flow weight those evictions displaced.
    pub evicted_weight: f64,
    /// Coverage gaps overlapping the window span.
    pub gaps: Vec<CoverageGap>,
    /// Passive RTT aggregate over the window (empty unless the source
    /// feeds RTT samples). Travels as an optional magic-led suffix —
    /// an empty aggregate encodes zero extra bytes, so results without
    /// RTT data keep the pre-RTT byte layout.
    pub rtt: RttAgg,
}

impl StreamResult {
    /// A window-less progress result: the subscription's watermark, and
    /// `last` when the stream is ending. `to == 0` marks it — real windows
    /// always have `to > 0` because sizes are positive.
    pub fn progress(seq: u64, watermark_ns: u64, last: bool) -> StreamResult {
        StreamResult {
            seq,
            watermark_ns,
            port: 0,
            from: 0,
            to: 0,
            fired: false,
            forced: false,
            degraded: false,
            last,
            max: 0,
            min: u64::MAX,
            sum: 0,
            count: 0,
            last_t: 0,
            last_depth: 0,
            flows: Vec::new(),
            evictions: 0,
            evicted_weight: 0.0,
            gaps: Vec::new(),
            rtt: RttAgg::default(),
        }
    }
}

/// Why a frame failed to decode.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The length prefix exceeded the negotiated frame cap; the frame was
    /// *not* read (and must not be — honoring the cap is what bounds
    /// allocation).
    TooLarge { claimed: u32, cap: u32 },
    /// The frame body contradicted itself (truncated fields, counts
    /// exceeding the bytes present, bad UTF-8, unknown discriminants).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::TooLarge { claimed, cap } => {
                write!(f, "frame length {claimed} exceeds cap {cap}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<Malformed> for WireError {
    fn from(m: Malformed) -> WireError {
        WireError::Malformed(m.0)
    }
}

// -- the codec ----------------------------------------------------------------

/// A value with one wire layout: `put` appends it, `get` consumes it from
/// the front of the cursor. Every impl keeps the two side by side, so a
/// layout is stated once; `get` is where outside input is validated.
pub(crate) trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(cur: &mut &[u8]) -> Result<Self, WireError>;
}

macro_rules! wire_int {
    ($($t:ident $put:path;)*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $put(out, *self);
            }
            #[inline]
            fn get(cur: &mut &[u8]) -> Result<$t, WireError> {
                Ok(codec::$t(cur)?)
            }
        }
    )*};
}
wire_int!(u8 Vec::push; u16 put_u16; u32 put_u32; u64 put_u64; u128 put_u128;);

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(cur: &mut &[u8]) -> Result<bool, WireError> {
        Ok(u8::get(cur)? != 0)
    }
}

/// Raw bit pattern, so estimates (NaN payloads included) survive exactly.
impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(cur: &mut &[u8]) -> Result<f64, WireError> {
        Ok(f64::from_bits(u64::get(cur)?))
    }
}

impl Wire for FlowId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(cur: &mut &[u8]) -> Result<FlowId, WireError> {
        Ok(FlowId(u32::get(cur)?))
    }
}

impl Wire for ErrorCode {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_u16().put(out);
    }
    fn get(cur: &mut &[u8]) -> Result<ErrorCode, WireError> {
        ErrorCode::from_u16(u16::get(cur)?)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(cur: &mut &[u8]) -> Result<(A, B), WireError> {
        Ok((A::get(cur)?, B::get(cur)?))
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(cur: &mut &[u8]) -> Result<String, WireError> {
        let len = u32::get(cur)? as usize;
        let s = std::str::from_utf8(codec::take(cur, len)?)
            .map_err(|_| WireError::Malformed("string not utf-8"))?;
        Ok(s.to_string())
    }
}

/// An opaque blob slice (`RttChunk` / `ProfChunk`), capped at
/// [`RTT_BYTES_PER_FRAME`].
impl Wire for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        debug_assert!(self.len() <= RTT_BYTES_PER_FRAME);
        (self.len() as u32).put(out);
        out.extend_from_slice(self);
    }
    fn get(cur: &mut &[u8]) -> Result<Vec<u8>, WireError> {
        let len = u32::get(cur)? as usize;
        if len > RTT_BYTES_PER_FRAME {
            return Err(WireError::Malformed("chunk exceeds bytes-per-frame cap"));
        }
        Ok(codec::take(cur, len)?.to_vec())
    }
}

/// An element of a counted collection, with the hostile-input bounds of
/// its `Vec`: the `DecodeBudget` rule — never size an allocation off a
/// claimed count the input cannot back.
trait Entry: Wire {
    /// Most entries one collection may carry.
    const CAP: usize;
    /// Smallest encoding of one entry; a count claiming more entries than
    /// the remaining bytes could hold is refused before any allocation.
    const MIN_BYTES: usize;
    /// The count travels as one byte instead of a `u32`.
    const NARROW: bool = false;
}

macro_rules! entries {
    ($($t:ty: cap $cap:expr, min $min:expr $(, narrow $narrow:expr)?;)*) => {$(
        impl Entry for $t {
            const CAP: usize = $cap;
            const MIN_BYTES: usize = $min;
            $(const NARROW: bool = $narrow;)?
        }
    )*};
}
entries! {
    (FlowId, f64): cap ENTRIES_PER_FRAME, min 12;
    (FlowId, u64): cap ENTRIES_PER_FRAME, min 12;
    CoverageGap: cap ENTRIES_PER_FRAME, min 16;
    // Empty name (4) + label count (1) + kind (1) + scalar (8).
    WireSample: cap METRIC_SAMPLES_PER_FRAME, min 14;
    (String, String): cap MAX_LABELS_PER_SAMPLE, min 8, narrow true;
    (u8, u64): cap NUM_BUCKETS, min 9, narrow true;
    BucketExemplar: cap NUM_BUCKETS, min 25, narrow true;
    // Two empty strings (4 + 4) + healthy (1).
    ShardMapEntry: cap MAX_BACKENDS_PER_MAP, min 9;
    // trace_id (16) + root span (8) + duration (8) + slow (1) + span count (4).
    Trace: cap MAX_TRACES_PER_DUMP, min 37;
    // Four u64 (32) + three empty strings (12).
    TraceSpan: cap MAX_SPANS_PER_TRACE, min 44;
}

impl<T: Entry> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        debug_assert!(self.len() <= T::CAP, "oversized collection built");
        if T::NARROW {
            out.push(self.len() as u8);
        } else {
            (self.len() as u32).put(out);
        }
        for entry in self {
            entry.put(out);
        }
    }
    fn get(cur: &mut &[u8]) -> Result<Vec<T>, WireError> {
        let n = if T::NARROW {
            usize::from(u8::get(cur)?)
        } else {
            u32::get(cur)? as usize
        };
        let n = codec::count(cur, n, T::CAP, T::MIN_BYTES)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(T::get(cur)?);
        }
        Ok(entries)
    }
}

/// The codec of a plain struct: its fields in the order given (the wire
/// order, which need not be the declaration order).
macro_rules! wire_struct {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl Wire for $name {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            fn get(cur: &mut &[u8]) -> Result<$name, WireError> {
                Ok($name { $($field: Wire::get(cur)?),* })
            }
        }

        #[cfg(test)]
        impl tests::Sample for $name {
            fn sample(i: usize) -> $name {
                $name { $($field: tests::Sample::sample(i)),* }
            }
        }
    };
}

wire_struct!(CoverageGap { from, to });
wire_struct!(HealthInfo {
    uptime_ns,
    workers,
    busy_workers,
    queue_depth,
    queue_cap,
    active_conns,
    max_conns,
    draining,
    version,
    commit,
    shard,
});
wire_struct!(ShardMapEntry {
    shard,
    addr,
    healthy
});
wire_struct!(ShardMap {
    generation,
    replication,
    epoch_ns,
    backends,
});
wire_struct!(BucketExemplar {
    bucket,
    trace_id,
    value
});
wire_struct!(TraceSpan {
    span_id,
    parent_span,
    start_ns,
    end_ns,
    name,
    process,
    tag,
});
wire_struct!(Trace {
    trace_id,
    root_span,
    duration_ns,
    slow,
    spans,
});

impl Wire for WireSample {
    fn put(&self, out: &mut Vec<u8>) {
        self.name.put(out);
        self.labels.put(out);
        self.value.put(out);
    }
    fn get(cur: &mut &[u8]) -> Result<WireSample, WireError> {
        let name = String::get(cur)?;
        if name.is_empty() {
            return Err(WireError::Malformed("empty metric name"));
        }
        Ok(WireSample {
            name,
            labels: Wire::get(cur)?,
            value: Wire::get(cur)?,
        })
    }
}

impl Wire for WireValue {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            WireValue::Counter(v) => (0u8, *v).put(out),
            WireValue::Gauge(v) => (1u8, *v).put(out),
            WireValue::Histogram {
                count,
                sum,
                min,
                max,
                buckets,
                exemplars,
            } => {
                out.push(2);
                for v in [count, sum, min, max] {
                    v.put(out);
                }
                buckets.put(out);
                exemplars.put(out);
            }
        }
    }
    fn get(cur: &mut &[u8]) -> Result<WireValue, WireError> {
        Ok(match u8::get(cur)? {
            0 => WireValue::Counter(u64::get(cur)?),
            1 => WireValue::Gauge(u64::get(cur)?),
            2 => {
                let (count, sum): (u64, u64) = Wire::get(cur)?;
                let (min, max): (u64, u64) = Wire::get(cur)?;
                let buckets: Vec<(u8, u64)> = Wire::get(cur)?;
                let exemplars: Vec<BucketExemplar> = Wire::get(cur)?;
                let mut indices = buckets
                    .iter()
                    .map(|(i, _)| *i)
                    .chain(exemplars.iter().map(|e| e.bucket));
                if indices.any(|i| usize::from(i) >= NUM_BUCKETS) {
                    return Err(WireError::Malformed("histogram bucket index out of range"));
                }
                WireValue::Histogram {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                    exemplars,
                }
            }
            _ => return Err(WireError::Malformed("unknown metric value kind")),
        })
    }
}

/// The optional trace-context trailer: nothing for `None` (the v1
/// layout), the fixed [`TRACE_EXT_LEN`]-byte block for `Some`.
///
/// Decoding is all-or-nothing: either the remaining bytes are exactly one
/// magic-led block, or the context is absent and whatever remains is left
/// for the trailing-bytes check to reject. A magic-led block with unknown
/// flag bits fails here — accepting it would break re-encode bit-identity.
impl Wire for Option<TraceContext> {
    fn put(&self, out: &mut Vec<u8>) {
        if let Some(ctx) = self {
            out.push(TRACE_EXT_MAGIC);
            ctx.sampled.put(out);
            ctx.trace_id.put(out);
            ctx.parent_span.put(out);
        }
    }
    fn get(cur: &mut &[u8]) -> Result<Option<TraceContext>, WireError> {
        if cur.len() != TRACE_EXT_LEN || cur[0] != TRACE_EXT_MAGIC {
            return Ok(None);
        }
        let (_magic, flags) = <(u8, u8)>::get(cur)?;
        if flags & !0x01 != 0 {
            return Err(WireError::Malformed("unknown trace-context flags"));
        }
        Ok(Some(TraceContext {
            trace_id: Wire::get(cur)?,
            parent_span: Wire::get(cur)?,
            sampled: flags & 1 != 0,
        }))
    }
}

/// The optional RTT-aggregate suffix: nothing for an empty aggregate (the
/// pre-RTT layout), otherwise magic + the scalar fields + the occupied
/// `(bucket, count)` pairs, index-ascending.
///
/// All-or-nothing like the trace trailer: bytes that do not start with
/// the magic are left for the trailing-bytes check; a magic-led suffix
/// must be fully well-formed. Every invariant the encoder maintains is
/// enforced — nonzero count, `min ≤ max`, bucket indices strictly
/// ascending with nonzero counts summing to `count` — so a decoded suffix
/// always re-encodes bit-identically.
impl Wire for RttAgg {
    fn put(&self, out: &mut Vec<u8>) {
        if self.count == 0 {
            return;
        }
        out.push(RTT_SUFFIX_MAGIC);
        for v in [
            self.count,
            self.sum,
            self.min,
            self.max,
            self.last_t,
            self.last_rtt,
        ] {
            v.put(out);
        }
        let occupied = self.buckets.iter().enumerate().filter(|(_, &n)| n != 0);
        out.push(occupied.clone().count() as u8);
        for (i, n) in occupied {
            (i as u8, *n).put(out);
        }
    }
    fn get(cur: &mut &[u8]) -> Result<RttAgg, WireError> {
        if cur.first() != Some(&RTT_SUFFIX_MAGIC) {
            return Ok(RttAgg::default());
        }
        let _magic = u8::get(cur)?;
        let mut agg = RttAgg {
            count: Wire::get(cur)?,
            sum: Wire::get(cur)?,
            min: Wire::get(cur)?,
            max: Wire::get(cur)?,
            last_t: Wire::get(cur)?,
            last_rtt: Wire::get(cur)?,
            buckets: [0; RTT_BUCKETS],
        };
        if agg.count == 0 {
            return Err(WireError::Malformed("empty rtt suffix must be absent"));
        }
        if agg.min > agg.max {
            return Err(WireError::Malformed("rtt suffix min exceeds max"));
        }
        let nbuckets = usize::from(u8::get(cur)?);
        if nbuckets == 0 {
            return Err(WireError::Malformed("rtt suffix bucket count out of range"));
        }
        codec::count(cur, nbuckets, RTT_BUCKETS, 9)?;
        let mut total = 0u64;
        let mut prev: Option<u8> = None;
        for _ in 0..nbuckets {
            let (i, n) = <(u8, u64)>::get(cur)?;
            if usize::from(i) >= RTT_BUCKETS {
                return Err(WireError::Malformed("rtt suffix bucket index out of range"));
            }
            if prev.is_some_and(|p| i <= p) {
                return Err(WireError::Malformed("rtt suffix buckets not ascending"));
            }
            prev = Some(i);
            if n == 0 {
                return Err(WireError::Malformed("rtt suffix carries an empty bucket"));
            }
            agg.buckets[usize::from(i)] = n;
            total = total
                .checked_add(n)
                .ok_or(WireError::Malformed("rtt suffix bucket counts overflow"))?;
        }
        if total != agg.count {
            return Err(WireError::Malformed(
                "rtt suffix bucket counts disagree with count",
            ));
        }
        Ok(agg)
    }
}

/// `StandingQueryResult`'s payload. The four booleans share one flags
/// byte (bit 0 fired, 1 forced, 2 degraded, 3 last) after `to`.
impl Wire for Box<StreamResult> {
    fn put(&self, out: &mut Vec<u8>) {
        self.seq.put(out);
        self.watermark_ns.put(out);
        self.port.put(out);
        self.from.put(out);
        self.to.put(out);
        let flags = u8::from(self.fired)
            | u8::from(self.forced) << 1
            | u8::from(self.degraded) << 2
            | u8::from(self.last) << 3;
        out.push(flags);
        for v in [
            self.max,
            self.min,
            self.sum,
            self.count,
            self.last_t,
            self.last_depth,
        ] {
            v.put(out);
        }
        self.flows.put(out);
        self.evictions.put(out);
        self.evicted_weight.put(out);
        self.gaps.put(out);
        self.rtt.put(out);
    }
    fn get(cur: &mut &[u8]) -> Result<Box<StreamResult>, WireError> {
        let (seq, watermark_ns): (u64, u64) = Wire::get(cur)?;
        let (port, from): (u16, u64) = Wire::get(cur)?;
        let (to, flags): (u64, u8) = Wire::get(cur)?;
        Ok(Box::new(StreamResult {
            seq,
            watermark_ns,
            port,
            from,
            to,
            fired: flags & 1 != 0,
            forced: flags & 2 != 0,
            degraded: flags & 4 != 0,
            last: flags & 8 != 0,
            max: Wire::get(cur)?,
            min: Wire::get(cur)?,
            sum: Wire::get(cur)?,
            count: Wire::get(cur)?,
            last_t: Wire::get(cur)?,
            last_depth: Wire::get(cur)?,
            flows: Wire::get(cur)?,
            evictions: Wire::get(cur)?,
            evicted_weight: Wire::get(cur)?,
            gaps: Wire::get(cur)?,
            rtt: Wire::get(cur)?,
        }))
    }
}

/// Whether a row's leading field is its request id, i.e. is named `id`
/// (the handshake frames, and `Request`'s rows, have none).
macro_rules! row_id {
    (id) => {
        true
    };
    ($other:ident) => {
        false
    };
}

/// Declares a tagged enum and its codec from one table of
/// `tag => Variant { field: type, … }` rows. On the wire a value is its
/// tag byte, then every field in row order, each in its type's [`Wire`]
/// layout; a field written `name: u32 [MAX]` is an announced length that
/// is refused above `MAX`. The table is the only place a variant's layout
/// is stated — the enum, the encoder, the decoder and the unit tests'
/// sample values all derive from it.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident (unknown tag: $unknown:literal) {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident {
                    $first:ident : $first_ty:ty
                    $(, $(#[$fmeta:meta])* $field:ident : $ty:ty $([$max:expr])?)* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant {
                    $first: $first_ty
                    $(, $(#[$fmeta])* $field: $ty)*
                }
            ),*
        }

        impl $name {
            /// Every declared tag, in table order.
            pub const TAGS: &'static [u8] = &[$($tag),*];

            /// This value's tag byte.
            pub fn tag(&self) -> u8 {
                match self {
                    $($name::$variant { .. } => $tag),*
                }
            }

            /// The request id this value travels under: its leading `id`
            /// field, or 0 for a variant that has none.
            pub fn id(&self) -> u64 {
                match self {
                    $($name::$variant { $first, .. } => {
                        if row_id!($first) { u64::from(*$first) } else { 0 }
                    })*
                }
            }
        }

        impl Wire for $name {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($name::$variant { $first $(, $field)* } => {
                        out.push($tag);
                        $first.put(out);
                        $(
                            $(debug_assert!(*$field <= $max);)?
                            $field.put(out);
                        )*
                    })*
                }
            }
            fn get(cur: &mut &[u8]) -> Result<$name, WireError> {
                Ok(match u8::get(cur)? {
                    $($tag => $name::$variant {
                        $first: Wire::get(cur)?
                        $(, $field: {
                            let v = <$ty>::get(cur)?;
                            $(if v > $max {
                                return Err(WireError::Malformed("announced length exceeds its cap"));
                            })?
                            v
                        })*
                    },)*
                    _ => return Err(WireError::Malformed($unknown)),
                })
            }
        }

        #[cfg(test)]
        impl $name {
            /// One value of every variant, each field its type's `i`-th
            /// test sample (capped fields clamped to their cap).
            fn samples(i: usize) -> Vec<$name> {
                vec![$($name::$variant {
                    $first: tests::Sample::sample(i)
                    $(, $field: {
                        let v = <$ty as tests::Sample>::sample(i);
                        $(let v = v.min($max);)?
                        v
                    })*
                }),*]
            }
        }
    };
}

wire_enum! {
    /// A query request, as carried inside [`Frame::Request`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Request (unknown tag: "unknown request kind") {
        /// §6.3 time-window query against the live analysis program.
        0 => TimeWindows { port: u16, from: u64, to: u64 },
        /// §5 queue-monitor (original-culprit) query against live state.
        1 => QueueMonitor { port: u16, at: u64 },
        /// Time-window query replayed from the `.pqa` archive; `d` is the
        /// coefficient delay parameter (matches `replay-query --d`).
        2 => Replay { port: u16, from: u64, to: u64, d: u64 },
        /// Per-flow RTT report over `[from, to]`, merged from the server's
        /// RTT measurements (live hook reports and/or archive spill
        /// segments). `max_flows` bounds the per-flow list in the answer
        /// (0 = unlimited); truncation is applied only by the hop that
        /// answers the client, so a router scatters with 0 and truncates
        /// after its merge — keeping routed answers bit-identical to a
        /// single daemon holding all the data.
        3 => Rtt { port: u16, from: u64, to: u64, max_flows: u32 },
    }
}

impl Request {
    /// The `kind` label this request reports under in `pq_serve_*` metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::TimeWindows { .. } => "time_windows",
            Request::QueueMonitor { .. } => "queue_monitor",
            Request::Replay { .. } => "replay",
            Request::Rtt { .. } => "rtt",
        }
    }

    /// The port the request targets.
    pub fn port(&self) -> u16 {
        match self {
            Request::TimeWindows { port, .. }
            | Request::QueueMonitor { port, .. }
            | Request::Replay { port, .. }
            | Request::Rtt { port, .. } => *port,
        }
    }
}

wire_enum! {
    /// One protocol frame. This table is the normative layout of every
    /// frame body: client frames carry tags below `0x80`, server frames
    /// `0x80` and above.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Frame (unknown tag: "unknown frame type") {
        // -- client → server -------------------------------------------------
        /// Connection opener: highest version spoken, receive frame cap.
        0x01 => Hello { version: u16, max_frame: u32 },
        /// A query; `id` is echoed in every frame of the response. `trace`
        /// carries the caller's trace context when tracing is on; `None`
        /// encodes zero extra bytes.
        0x02 => Request { id: u64, req: Request, trace: Option<TraceContext> },
        /// Ask for the server's Prometheus text exposition.
        0x03 => MetricsReq { id: u64 },
        /// Ask the server to drain in-flight queries and exit.
        0x04 => ShutdownReq { id: u64 },
        /// Ask for the server's health self-report.
        0x05 => HealthReq { id: u64 },
        /// Ask for one structured metrics snapshot, streamed as one
        /// update with `seq` 0 and `last` set.
        0x06 => MetricsGet { id: u64 },
        // 0x07 is retired: it was the metrics subscription before v3.
        /// Ask for the serving topology: a router answers with its backend
        /// set, a lone daemon with a one-entry map describing itself.
        0x08 => ShardMapReq { id: u64 },
        /// Register a standing continuous query. `query` is the text form
        /// parsed by `pq-stream`; `cap` bounds per-window summary state
        /// (clamped to [`ENTRIES_PER_FRAME`]); `max_windows` 0 means
        /// unbounded, otherwise the subscription ends after that many
        /// *fired* windows; `stop_after_seal` ends it once the source is
        /// exhausted and every window has closed (CI one-shot mode).
        0x09 => StandingQueryReq {
            id: u64,
            cap: u32,
            max_windows: u32,
            stop_after_seal: bool,
            query: String,
            trace: Option<TraceContext>,
        },
        /// Cancel the standing subscription registered under `sub`; the
        /// server answers with a final `last=true` result frame on `sub`.
        0x0A => StandingQueryCancel { id: u64, sub: u64 },
        /// Ask for the server's recent completed traces (newest first),
        /// `max`-bounded; `slow_only` restricts to the slow-query log.
        0x0B => TraceDumpReq { id: u64, max: u32, slow_only: bool },
        /// Ask for the server's profile dump (scopes, locks, sampled
        /// stacks). Per-process like `TraceDumpReq` in spirit — but a
        /// router answers with the *merged* dump of all its live backends,
        /// its own profile excluded, so one request profiles the fleet.
        0x0C => ProfileDumpReq { id: u64 },

        // -- server → client -------------------------------------------------
        /// Accepted version and frame cap (`min` of both sides).
        0x81 => HelloAck { version: u16, max_frame: u32 },
        /// Start of a time-window answer: totals for the chunks that follow.
        /// `trace` echoes the request's context iff the request carried one.
        0x82 => ResultHeader {
            id: u64,
            degraded: bool,
            /// Checkpoints the serving side holds for the port (the local
            /// query path prints this; carrying it keeps output identical).
            checkpoints: u64,
            flows: u32,
            gaps: u32,
            trace: Option<TraceContext>,
        },
        /// Up to [`ENTRIES_PER_FRAME`] per-flow estimates (`f64` bits).
        0x83 => ResultFlows { id: u64, flows: Vec<(FlowId, f64)> },
        /// Up to [`ENTRIES_PER_FRAME`] coverage gaps.
        0x84 => ResultGaps { id: u64, gaps: Vec<CoverageGap> },
        /// End of a streamed answer.
        0x85 => ResultEnd { id: u64 },
        /// Start of a queue-monitor answer. `trace` echoes the request's
        /// context iff the request carried one.
        0x86 => MonitorHeader {
            id: u64,
            degraded: bool,
            frozen_at: u64,
            staleness: u64,
            counts: u32,
            gaps: u32,
            trace: Option<TraceContext>,
        },
        /// Up to [`ENTRIES_PER_FRAME`] original-culprit counts.
        0x87 => MonitorCounts { id: u64, counts: Vec<(FlowId, u64)> },
        /// Typed failure, with the coverage-gap summary the local path would
        /// have seen (so degraded-query semantics survive the wire). `id` 0
        /// marks a connection-level failure (bad framing, a stopping router).
        0x88 => Error { id: u64, code: ErrorCode, gaps: Vec<CoverageGap>, message: String },
        /// Load shed: retry after the given backoff. `id` 0 means the whole
        /// connection was refused at accept time.
        0x89 => Busy { id: u64, retry_after_ms: u32 },
        /// Prometheus text exposition.
        0x8A => MetricsText { id: u64, text: String },
        /// Shutdown acknowledged; the server drains and exits.
        0x8B => ShutdownAck { id: u64 },
        /// Health self-report.
        0x8C => HealthAck { id: u64, health: HealthInfo },
        /// Start of one metrics update: `t_ns` is the server clock, `total`
        /// the sample count across the chunks that follow. A `MetricsGet`
        /// answer always carries `seq` 0 and `last` set; both fields
        /// remain from the metrics subscription retired in v3.
        0x8D => MetricsHeader { id: u64, seq: u64, t_ns: u64, total: u32, last: bool },
        /// Up to [`METRIC_SAMPLES_PER_FRAME`] metric samples. Terminated by
        /// `ResultEnd`, like every streamed answer.
        0x8E => MetricsChunk { id: u64, samples: Vec<WireSample> },
        /// The serving topology (answer to `ShardMapReq`).
        0x8F => ShardMapAck { id: u64, map: ShardMap },
        /// Standing query admitted: `query` echoes the canonical form the
        /// evaluator actually runs, `cap` the effective (clamped) summary
        /// cap. Results follow asynchronously under the same `id`. `trace`
        /// echoes the registration's context iff it carried one.
        0x90 => StandingQueryAck { id: u64, cap: u32, query: String, trace: Option<TraceContext> },
        /// One closed window on a standing subscription (`id` is the
        /// registering request's id).
        0x91 => StandingQueryResult { id: u64, result: Box<StreamResult> },
        // 0x92 is retired: it acked the metrics subscription before v3.
        /// Recent completed traces, newest first (answer to `TraceDumpReq`).
        /// Per-process: a router answers with its own traces, not its
        /// backends' — `pqsim trace` stitches dumps from several addresses.
        0x93 => TraceDumpAck { id: u64, traces: Vec<Trace> },
        /// Start of an RTT answer: the report travels as the `pq-rtt`
        /// canonical encoding, split into [`Frame::RttChunk`] blobs of at
        /// most [`RTT_BYTES_PER_FRAME`] bytes and terminated by
        /// `ResultEnd`. `total` is the byte length of the full encoding
        /// (capped by [`MAX_RTT_REPORT_LEN`]); `degraded` reports
        /// bounded-memory loss (collisions, evictions, sample clips) or a
        /// `max_flows` truncation. Validation of the payload itself lives
        /// in the `pq-rtt` codec, which the client runs on the reassembled
        /// bytes. `trace` echoes the request's context iff it carried one.
        0x94 => RttHeader {
            id: u64,
            degraded: bool,
            total: u32 [MAX_RTT_REPORT_LEN],
            trace: Option<TraceContext>,
        },
        /// One bounded slice of an encoded RTT report.
        0x95 => RttChunk { id: u64, bytes: Vec<u8> },
        /// Start of a profile-dump answer: the report travels as the
        /// `pq-prof` canonical encoding, split into [`Frame::ProfChunk`]
        /// blobs of at most [`PROF_BYTES_PER_FRAME`] bytes and terminated
        /// by `ResultEnd`. `total` is the byte length of the full encoding
        /// (capped by [`MAX_PROF_DUMP_LEN`]); payload validation lives in
        /// the `pq-prof` codec, which the client runs on the reassembled
        /// bytes.
        0x96 => ProfHeader { id: u64, total: u32 [MAX_PROF_DUMP_LEN] },
        /// One bounded slice of an encoded profile dump.
        0x97 => ProfChunk { id: u64, bytes: Vec<u8> },
    }
}

impl Frame {
    /// A typed failure with no coverage-gap summary.
    pub fn error(id: u64, code: ErrorCode, message: &str) -> Frame {
        Frame::Error {
            id,
            code,
            gaps: Vec::new(),
            message: message.to_string(),
        }
    }
}

/// Encode a frame body (type byte + payload), without the length prefix.
pub fn encode_body(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    frame.put(&mut out);
    out
}

/// Decode a frame body (type byte + payload). Trailing bytes are a
/// protocol violation — a frame is exactly its declared fields.
pub fn decode_body(mut body: &[u8]) -> Result<Frame, WireError> {
    let frame = Frame::get(&mut body)?;
    if !body.is_empty() {
        return Err(WireError::Malformed("trailing bytes after frame"));
    }
    Ok(frame)
}

/// Append one length-prefixed frame to `out`, the body encoded in place
/// behind its prefix.
pub(crate) fn put_frame(out: &mut Vec<u8>, frame: &Frame) {
    let at = out.len();
    put_u32(out, 0);
    frame.put(out);
    let len = (out.len() - at - 4) as u32;
    debug_assert!(len <= MAX_FRAME_LEN, "oversized frame built");
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let mut buf = Vec::with_capacity(32);
    put_frame(&mut buf, frame);
    w.write_all(&buf)
}

/// Read one length-prefixed frame, honoring `max_frame`.
///
/// An oversized length prefix fails with [`WireError::TooLarge`] *before*
/// anything past the prefix is read or allocated; the connection is no
/// longer framed after that, so callers must close it.
pub fn read_frame<R: Read>(r: &mut R, max_frame: u32) -> Result<Frame, WireError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 {
        return Err(WireError::Malformed("zero-length frame"));
    }
    if len > max_frame {
        return Err(WireError::TooLarge {
            claimed: len,
            cap: max_frame,
        });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    decode_body(&body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic test value per wire type; `i` walks a few
    /// representative shapes (zero/empty, typical, extreme). The frame
    /// table builds one frame per row out of these, so a new row is
    /// round-tripped, truncated and garbage-tailed without a new test.
    pub(super) trait Sample: Sized {
        fn sample(i: usize) -> Self;
    }

    macro_rules! sample_int {
        ($($t:ty)*) => {$(
            impl Sample for $t {
                fn sample(i: usize) -> $t {
                    [0, 1, <$t>::MAX, <$t>::MAX / 3][i % 4]
                }
            }
        )*};
    }
    sample_int!(u8 u16 u32 u64 u128);

    impl Sample for bool {
        fn sample(i: usize) -> bool {
            i % 2 == 1
        }
    }

    impl Sample for f64 {
        fn sample(i: usize) -> f64 {
            [0.0, 1.5, f64::from_bits(0x7ff8_dead_beef_0001), -2.25e300][i % 4]
        }
    }

    impl Sample for String {
        fn sample(i: usize) -> String {
            ["", "pq", "naïve ünïcode ✓", "port 3 window tumbling 1ms"][i % 4].to_string()
        }
    }

    impl Sample for FlowId {
        fn sample(i: usize) -> FlowId {
            FlowId(Sample::sample(i))
        }
    }

    impl Sample for ErrorCode {
        fn sample(i: usize) -> ErrorCode {
            ErrorCode::from_u16(1 + (i % 9) as u16).unwrap()
        }
    }

    impl Sample for Option<TraceContext> {
        fn sample(i: usize) -> Option<TraceContext> {
            (i % 2 == 1).then(|| TraceContext {
                trace_id: Sample::sample(i),
                parent_span: Sample::sample(i + 1),
                sampled: i % 4 == 1,
            })
        }
    }

    impl<A: Sample, B: Sample> Sample for (A, B) {
        fn sample(i: usize) -> (A, B) {
            (A::sample(i), B::sample(i + 1))
        }
    }

    impl<T: Entry + Sample> Sample for Vec<T> {
        fn sample(i: usize) -> Vec<T> {
            (0..[0, 1, 3][i % 3]).map(|k| T::sample(i + k)).collect()
        }
    }

    impl Sample for Vec<u8> {
        fn sample(i: usize) -> Vec<u8> {
            (0..[0, 1, 300][i % 3]).map(|k| (k * 7 + i) as u8).collect()
        }
    }

    impl Sample for Request {
        fn sample(i: usize) -> Request {
            let all = Request::samples(i);
            all[i % all.len()]
        }
    }

    impl Sample for WireSample {
        fn sample(i: usize) -> WireSample {
            WireSample {
                name: format!("pq_metric_{i}"),
                labels: Sample::sample(i),
                value: Sample::sample(i),
            }
        }
    }

    impl Sample for WireValue {
        fn sample(i: usize) -> WireValue {
            let top = (NUM_BUCKETS - 1) as u8;
            match i % 3 {
                0 => WireValue::Counter(Sample::sample(i)),
                1 => WireValue::Gauge(Sample::sample(i)),
                _ => WireValue::Histogram {
                    count: 2,
                    sum: Sample::sample(i),
                    min: 100,
                    max: 200,
                    buckets: vec![(7, 1), (top, Sample::sample(i))],
                    exemplars: vec![BucketExemplar {
                        bucket: top,
                        trace_id: Sample::sample(i),
                        value: 200,
                    }],
                },
            }
        }
    }

    impl Sample for RttAgg {
        fn sample(i: usize) -> RttAgg {
            let mut agg = RttAgg::default();
            for (t, v) in [(10, 250_000), (20, 300_000), (30, 1_900_000)] {
                if i % 2 == 1 {
                    agg.offer(t, v);
                }
            }
            agg
        }
    }

    impl Sample for Box<StreamResult> {
        fn sample(i: usize) -> Box<StreamResult> {
            Box::new(StreamResult {
                seq: Sample::sample(i),
                watermark_ns: Sample::sample(i + 1),
                port: Sample::sample(i),
                from: Sample::sample(i),
                to: Sample::sample(i + 1),
                // `matches!`, not `== 0`: clippy's `manual_is_multiple_of`
                // wants a method newer than the workspace's rust-version.
                fired: matches!(i % 2, 0),
                forced: matches!(i % 3, 0),
                degraded: i % 2 == 1,
                last: matches!(i % 5, 0),
                max: Sample::sample(i),
                min: Sample::sample(i + 2),
                sum: Sample::sample(i),
                count: Sample::sample(i + 1),
                last_t: Sample::sample(i),
                last_depth: Sample::sample(i + 3),
                flows: Sample::sample(i),
                evictions: Sample::sample(i),
                evicted_weight: Sample::sample(i),
                gaps: Sample::sample(i + 1),
                rtt: Sample::sample(i),
            })
        }
    }

    /// Twelve sample rounds cover every residue the impls above switch on.
    fn table_samples() -> Vec<Frame> {
        (0..12).flat_map(Frame::samples).collect()
    }

    #[test]
    fn every_table_row_round_trips_bit_exactly() {
        for frame in table_samples() {
            let body = encode_body(&frame);
            assert_eq!(body[0], frame.tag());
            let back = decode_body(&body).unwrap_or_else(|e| panic!("{frame:?}: {e}"));
            // Compare re-encoded bytes, not `PartialEq`: bit-level identity
            // is the contract, and it also holds for NaN flow values.
            assert_eq!(encode_body(&back), body, "re-encode differs for {frame:?}");
        }
    }

    #[test]
    fn every_cut_of_every_row_errors() {
        for frame in table_samples() {
            let body = encode_body(&frame);
            for cut in 0..body.len() {
                // The one prefix that may decode drops exactly an optional
                // trailer, and then it is the trailer-less frame.
                if let Ok(bare) = decode_body(&body[..cut]) {
                    assert!(
                        matches!(body[cut], TRACE_EXT_MAGIC | RTT_SUFFIX_MAGIC),
                        "cut {cut} of {frame:?} decoded"
                    );
                    assert_eq!(encode_body(&bare), &body[..cut]);
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_after_any_row_are_rejected() {
        for frame in table_samples() {
            for tail in [0x00, TRACE_EXT_MAGIC, RTT_SUFFIX_MAGIC] {
                let mut body = encode_body(&frame);
                body.push(tail);
                assert!(decode_body(&body).is_err(), "{frame:?} + {tail:#x}");
            }
        }
    }

    #[test]
    fn id_is_the_leading_field_of_every_row_but_the_handshake() {
        for frame in table_samples() {
            let body = encode_body(&frame);
            match frame {
                Frame::Hello { .. } | Frame::HelloAck { .. } => assert_eq!(frame.id(), 0),
                _ => {
                    let on_wire = u64::from_le_bytes(body[1..9].try_into().unwrap());
                    assert_eq!(frame.id(), on_wire, "{frame:?}");
                }
            }
        }
        assert_eq!(Frame::TAGS.len(), 33);
        assert!(Frame::TAGS.windows(2).all(|w| w[0] < w[1]));
    }

    /// A count past the cap (with bytes enough to back it) and an in-cap
    /// count with nothing behind it are both refused, for every counted
    /// collection the table uses.
    fn inflated_counts_are_refused<T: Entry + std::fmt::Debug>() {
        let count = |n: usize| match T::NARROW {
            true => vec![n as u8],
            false => (n as u32).to_le_bytes().to_vec(),
        };
        let mut over = count(T::CAP + 1);
        over.resize(over.len() + (T::CAP + 1) * 64, 0);
        assert!(Vec::<T>::get(&mut &over[..]).is_err());
        assert!(Vec::<T>::get(&mut &count(1)[..]).is_err());
        assert!(Vec::<T>::get(&mut &count(T::CAP)[..]).is_err());
        assert!(T::MIN_BYTES <= 64);
    }

    #[test]
    fn inflated_collection_counts_are_rejected_without_allocating() {
        inflated_counts_are_refused::<(FlowId, f64)>();
        inflated_counts_are_refused::<(FlowId, u64)>();
        inflated_counts_are_refused::<CoverageGap>();
        inflated_counts_are_refused::<WireSample>();
        inflated_counts_are_refused::<(String, String)>();
        inflated_counts_are_refused::<(u8, u64)>();
        inflated_counts_are_refused::<BucketExemplar>();
        inflated_counts_are_refused::<ShardMapEntry>();
        inflated_counts_are_refused::<Trace>();
        inflated_counts_are_refused::<TraceSpan>();
        // Whole frames: u32::MAX entries claimed, none carried.
        for tag in [0x83, 0x84, 0x87, 0x8E, 0x93] {
            let mut body = vec![tag];
            body.extend_from_slice(&1u64.to_le_bytes());
            body.extend_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
        }
    }

    #[test]
    fn hostile_blob_frames_are_rejected() {
        for (header, chunk) in [(0x94u8, 0x95u8), (0x96, 0x97)] {
            // Chunk length pointing past the bytes present.
            let mut body = vec![chunk];
            body.extend_from_slice(&1u64.to_le_bytes());
            body.extend_from_slice(&100u32.to_le_bytes());
            body.extend_from_slice(&[0u8; 10]);
            assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
            // Chunk length over the per-frame cap, bytes present or not.
            let over = RTT_BYTES_PER_FRAME + 1;
            let mut body = vec![chunk];
            body.extend_from_slice(&1u64.to_le_bytes());
            body.extend_from_slice(&(over as u32).to_le_bytes());
            assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
            body.resize(body.len() + over, 0);
            assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
            // Header announcing a blob over the reassembly cap.
            let mut body = vec![header];
            body.extend_from_slice(&1u64.to_le_bytes());
            if header == 0x94 {
                body.push(0);
            }
            body.extend_from_slice(&(MAX_RTT_REPORT_LEN + 1).to_le_bytes());
            assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
        }
        assert_eq!(MAX_RTT_REPORT_LEN, MAX_PROF_DUMP_LEN);
    }

    fn window(rtt: RttAgg) -> Frame {
        let mut result: Box<StreamResult> = Sample::sample(1);
        result.rtt = rtt;
        Frame::StandingQueryResult { id: 1, result }
    }

    #[test]
    fn empty_rtt_suffix_is_the_pre_rtt_layout() {
        let bare = encode_body(&window(RttAgg::default()));
        let suffixed = encode_body(&window(Sample::sample(1)));
        // The suffix is a pure suffix: same prefix, magic-led extra bytes.
        assert!(suffixed.len() > bare.len());
        assert_eq!(&suffixed[..bare.len()], &bare[..]);
        assert_eq!(suffixed[bare.len()], RTT_SUFFIX_MAGIC);
        // Truncation inside the suffix never silently decodes as a
        // suffix-less result.
        for cut in bare.len() + 1..suffixed.len() {
            assert!(decode_body(&suffixed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_rtt_suffixes_are_rejected() {
        let suffix_at = encode_body(&window(RttAgg::default())).len();
        let body = encode_body(&window(Sample::sample(1)));
        let hostile = |at: usize, bytes: &[u8]| {
            let mut body = body.clone();
            body[suffix_at + at..suffix_at + at + bytes.len()].copy_from_slice(bytes);
            assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
        };
        // A zero count must be encoded as an absent suffix.
        hostile(1, &0u64.to_le_bytes());
        // Bucket counts must sum to the sample count.
        hostile(1, &u64::MAX.to_le_bytes());
        // min > max contradicts the aggregate invariant.
        hostile(17, &u64::MAX.to_le_bytes());
        // A non-magic trailer is trailing garbage, not an empty suffix.
        hostile(0, &[0x00]);
        // Bucket indices ascend strictly and stay inside the schema; no
        // bucket is empty. (Layout: six u64, a count byte, then pairs.)
        hostile(50, &[RTT_BUCKETS as u8]);
        hostile(59, &[0]);
        hostile(51, &0u64.to_le_bytes());
        hostile(49, &[0]);
    }

    #[test]
    fn absent_trace_context_is_the_v1_layout() {
        let request = |trace| Frame::Request {
            id: 9,
            req: Request::QueueMonitor { port: 2, at: 500 },
            trace,
        };
        let bare = encode_body(&request(None));
        let traced = encode_body(&request(Sample::sample(1)));
        // The extension is a pure suffix: same prefix, exactly
        // TRACE_EXT_LEN extra bytes, led by the magic.
        assert_eq!(traced.len(), bare.len() + TRACE_EXT_LEN);
        assert_eq!(&traced[..bare.len()], &bare[..]);
        assert_eq!(traced[bare.len()], TRACE_EXT_MAGIC);
        // Unknown flag bits.
        let mut body = traced.clone();
        body[bare.len() + 1] = 0x03;
        assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
        // Wrong magic: the block is not an extension, so it is trailing
        // garbage.
        let mut body = traced.clone();
        body[bare.len()] = 0x7D;
        assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
        // An over-long tail (extension + extra byte) is rejected too.
        let mut body = traced;
        body.push(0);
        assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
    }

    #[test]
    fn hostile_metric_samples_are_rejected() {
        let chunk = |name: &str, value| {
            encode_body(&Frame::MetricsChunk {
                id: 1,
                samples: vec![WireSample {
                    name: name.into(),
                    labels: vec![],
                    value,
                }],
            })
        };
        let histogram = |buckets, exemplars| WireValue::Histogram {
            count: 1,
            sum: 1,
            min: 1,
            max: 1,
            buckets,
            exemplars,
        };
        // Out-of-range histogram bucket index: the index byte precedes its
        // u64 count and the trailing (empty) exemplar-count byte.
        let mut body = chunk("m", histogram(vec![(64, 1)], vec![]));
        assert!(decode_body(&body).is_ok());
        let at = body.len() - 10;
        body[at] = NUM_BUCKETS as u8;
        assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
        // Out-of-range exemplar bucket index: the bucket byte precedes its
        // u128 id and u64 value.
        let exemplar = BucketExemplar {
            bucket: 63,
            trace_id: 1,
            value: 1,
        };
        let mut body = chunk("m", histogram(vec![], vec![exemplar]));
        assert!(decode_body(&body).is_ok());
        let at = body.len() - 25;
        body[at] = NUM_BUCKETS as u8;
        assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
        // Empty metric name.
        let body = chunk("", WireValue::Counter(1));
        assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
        // Unknown value kind: the kind byte precedes the u64 scalar.
        let mut body = chunk("m", WireValue::Counter(1));
        let at = body.len() - 9;
        body[at] = 3;
        assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
    }

    #[test]
    fn unknown_discriminants_and_bad_utf8_are_rejected() {
        assert!(decode_body(&[]).is_err());
        for tag in (0..=u8::MAX).filter(|t| !Frame::TAGS.contains(t)) {
            assert!(decode_body(&[tag, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        }
        // Request kind 4; error code 0 and 10.
        let mut body = encode_body(&Frame::Request {
            id: 1,
            req: Request::QueueMonitor { port: 2, at: 5 },
            trace: None,
        });
        body[9] = 4;
        assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
        for code in [0u16, 10] {
            let mut body = encode_body(&Frame::Error {
                id: 1,
                code: ErrorCode::Io,
                gaps: vec![],
                message: String::new(),
            });
            body[9..11].copy_from_slice(&code.to_le_bytes());
            assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
        }
        // Non-UTF-8 text in the last string of a frame.
        let mut body = encode_body(&Frame::MetricsText {
            id: 1,
            text: "pq".into(),
        });
        let n = body.len();
        body[n - 2..].copy_from_slice(&[0xFE, 0xFF]);
        assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
    }

    #[test]
    fn length_prefix_is_judged_before_the_body_is_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut cur = buf.as_slice();
        assert!(matches!(
            read_frame(&mut cur, MAX_FRAME_LEN),
            Err(WireError::TooLarge { .. })
        ));
        // Nothing past the prefix was consumed.
        assert_eq!(cur.len(), 16);
        assert!(matches!(
            read_frame(&mut &[0u8; 8][..], MAX_FRAME_LEN),
            Err(WireError::Malformed(_))
        ));
    }
}
