//! # pq-serve — the concurrent diagnosis-query service
//!
//! PrintQueue's data plane answers *what was in the queue and why* only
//! if an operator can actually ask. This crate turns the repository's
//! in-process query machinery — live [`AnalysisProgram`] register state
//! and `.pqa` checkpoint archives — into a network service:
//!
//! * [`wire`] — a small, versioned, length-prefixed binary protocol.
//!   Requests name a port, a [`QueryInterval`], and a query kind
//!   (time-window §6.3, queue-monitor §5, or replay-from-archive);
//!   answers stream back in bounded frames and always carry the
//!   degraded flag and [`CoverageGap`]s of the in-process API, so a
//!   remote answer is exactly as honest as a local one.
//! * [`server`] — the daemon: a fixed worker pool, sharded archive
//!   readers, bounded admission queue with explicit `Busy` load
//!   shedding (never a silent drop), and graceful drain on shutdown.
//! * [`cache`] — a shared LRU cache of decoded segments keyed by
//!   `(archive, offset, CRC)`, so hot intervals skip the expensive
//!   decode path.
//! * [`answer`] — each streamed answer's frame sequence and its
//!   reassembler, side by side; the daemon, the router and the client
//!   all go through it.
//! * [`front`] — accept loop, connection cap, handshake and framed read
//!   loop, shared with `pq-router`.
//! * [`client`] — a blocking client that reassembles streamed answers
//!   into the same shapes local queries return, enabling bit-identical
//!   output.
//!
//! Everything observable is exported under the `pq_serve_*` telemetry
//! namespace via [`pq_telemetry`] — and the wire carries that
//! observability too: `HealthReq` answers a health summary inline (it
//! works even when the pool is saturated), and `MetricsGet` returns one
//! structured snapshot, answered inline the same way. `pqsim watch`
//! polls it into a live dashboard and alert evaluation.
//!
//! The daemon also answers **standing continuous queries**
//! (`StandingQueryReq`): at registration it runs `pq-stream` window
//! operators over the checkpoint stream and pushes each closed window's
//! answer — culprit flows included — under the `pq_stream_*` telemetry
//! namespace. [`standing`] builds those frames and keeps the open
//! subscriptions, for the daemon and the router alike.
//!
//! [`AnalysisProgram`]: pq_core::control::AnalysisProgram
//! [`QueryInterval`]: pq_core::snapshot::QueryInterval
//! [`CoverageGap`]: pq_core::control::CoverageGap

pub mod answer;
pub mod cache;
pub mod client;
pub mod front;
pub mod server;
pub mod standing;
pub mod wire;

pub use answer::{MetricsUpdate, RemoteMonitor, RemoteResult, RemoteRtt};
pub use cache::{CacheStats, DecodeCache};
pub use client::{Client, ClientError, RetryPolicy, StandingAck};
pub use server::{ServeConfig, Server, ServerHandle, Sources};
pub use wire::{
    ErrorCode, Frame, HealthInfo, Request, ShardMap, ShardMapEntry, StreamResult, WireError,
    WireSample, WireValue, MAX_BACKENDS_PER_MAP, MAX_FRAME_LEN, METRIC_SAMPLES_PER_FRAME,
    PROTOCOL_VERSION,
};
