//! pq-telemetry: the reproduction's own observability plane.
//!
//! PrintQueue diagnoses *other* systems' queues; this crate lets the
//! reproduction diagnose itself. The design follows the shape of in-switch
//! histogram monitoring (P4TG-style log-bucketed RTT histograms) and
//! Rust-native runtime control planes with first-class metrics (RBFRT):
//! keep the hot path to a handful of relaxed atomic operations, and expose
//! everything through one uniform registry.
//!
//! Three layers:
//!
//! * [`registry`] — named counters, gauges, and log2-bucketed histograms.
//!   Handles are `Arc`-backed atomics: recording never locks, never
//!   allocates, and is safe from any thread. Registration (cold path)
//!   takes a mutex. Snapshots are plain data with an **associative**
//!   [`RegistrySnapshot::merge`], so fleet-level rollups are just folds.
//! * [`spans`] — nanosecond sim-clock span tracing (enqueue→dequeue
//!   residence, freeze-and-read, window rotation, segment flush, replay
//!   query) into a bounded ring buffer. Off by default: a disabled tracer
//!   costs one relaxed atomic load per call site. Toggle at runtime with
//!   [`Telemetry::set_tracing`].
//! * exporters — [`prometheus`] text exposition (plus a parser for
//!   smoke-testing it) and [`chrome`] trace-event JSON loadable in
//!   Perfetto or `chrome://tracing`.
//!
//! The [`Telemetry`] handle bundles a registry and a tracer and clones
//! cheaply (it is internally `Arc`-shared), so the switch, the control
//! plane, and the store can all record into the same namespace. Every
//! metric name this workspace emits is a constant in [`names`] — one
//! place to grep, one schema to document (DESIGN.md §9).

pub mod alerts;
pub mod chrome;
pub mod delta;
pub mod histogram;
pub mod prometheus;
pub mod provenance;
pub mod registry;
pub mod spans;
pub mod trace;

pub use alerts::{
    parse_rules, AlertEngine, AlertEvent, AlertKind, AlertRule, AlertStatus, Op, Predicate, Stat,
};
pub use chrome::{to_chrome_trace, traces_to_chrome};
pub use delta::{changed, counter_delta, delta, rate_per_sec, GaugeHistory};
pub use histogram::{BucketExemplar, Histogram, HistogramSnapshot};
/// The workspace's one byte codec, for crates that reach pq-prof through
/// this one (pq-rtt's report codec).
pub use pq_prof::codec;
pub use pq_prof::hist::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, HistSnapshot, NUM_BUCKETS,
};
pub use prometheus::{
    parse_exposition, parse_prometheus, to_prometheus, MetricMeta, ParsedExposition, ParsedMetric,
};
pub use registry::{Counter, Gauge, MetricKey, MetricValue, Registry, RegistrySnapshot};
pub use spans::{SpanEvent, SpanTracer};
pub use trace::{
    new_trace_id, trace_to_json, OpenSpan, RequestTrace, Trace, TraceClock, TraceContext,
    TraceSink, TraceSpan, TraceStore, SAMPLE_ALWAYS_PPM,
};

use std::sync::Arc;

/// Canonical metric and span names — the telemetry schema.
///
/// Conventions: every metric is prefixed `pq_<crate>_`; counters end in
/// `_total`; histograms carry their unit as a suffix (`_ns`, `_bytes`);
/// per-port series use a `port` label. Span names are verbs describing the
/// unit of work the span covers.
pub mod names {
    // -- pq-switch ---------------------------------------------------------
    /// Packets admitted to a port's queue (counter, label `port`).
    pub const SWITCH_ENQUEUED: &str = "pq_switch_enqueued_total";
    /// Packets transmitted from a port (counter, label `port`).
    pub const SWITCH_DEQUEUED: &str = "pq_switch_dequeued_total";
    /// Packets tail-dropped at a port (counter, label `port`).
    pub const SWITCH_DROPPED: &str = "pq_switch_dropped_total";
    /// Bytes transmitted from a port (counter, label `port`).
    pub const SWITCH_TX_BYTES: &str = "pq_switch_tx_bytes_total";
    /// Per-packet queue residence, enqueue→dequeue (histogram, ns,
    /// label `port`).
    pub const SWITCH_RESIDENCE_NS: &str = "pq_switch_residence_ns";
    /// Highest queue depth observed (gauge, cells, label `port`).
    pub const SWITCH_MAX_DEPTH_CELLS: &str = "pq_switch_max_depth_cells";

    // -- pq-core control plane --------------------------------------------
    /// Freeze-and-read attempts, first tries and retries alike (counter).
    pub const CONTROL_POLLS_ATTEMPTED: &str = "pq_control_polls_attempted_total";
    /// Attempts that failed outright (counter).
    pub const CONTROL_POLLS_FAILED: &str = "pq_control_polls_failed_total";
    /// Attempts that were retries of earlier failures (counter).
    pub const CONTROL_POLLS_RETRIED: &str = "pq_control_polls_retried_total";
    /// Attempts rejected inside an injected stall window (counter).
    pub const CONTROL_POLLS_STALLED: &str = "pq_control_polls_stalled_total";
    /// Checkpoints successfully stored (counter).
    pub const CONTROL_CHECKPOINTS_STORED: &str = "pq_control_checkpoints_stored_total";
    /// Checkpoints read but lost before storage (counter).
    pub const CONTROL_CHECKPOINTS_DROPPED: &str = "pq_control_checkpoints_dropped_total";
    /// Coverage gaps recorded (counter).
    pub const CONTROL_COVERAGE_GAPS: &str = "pq_control_coverage_gaps_total";
    /// Nanoseconds covered by recorded gaps (counter).
    pub const CONTROL_GAP_NS: &str = "pq_control_gap_ns_total";
    /// Failures whose backoff had reached the policy ceiling (counter).
    pub const CONTROL_BACKOFF_CEILING: &str = "pq_control_backoff_ceiling_total";
    /// Data-plane triggers rejected while a special read was out (counter).
    pub const CONTROL_DP_REJECTED: &str = "pq_control_dp_triggers_rejected_total";
    /// Checkpoint-spill sink writes that failed (counter).
    pub const CONTROL_SPILL_ERRORS: &str = "pq_control_spill_errors_total";
    /// Time a checkpoint or gap hand-off blocked on the store writer's full
    /// queue (histogram, ns; only blocked hand-offs are recorded).
    pub const CONTROL_SPILL_WAIT_NS: &str = "pq_control_spill_wait_ns";
    /// Checkpoints evicted from the in-RAM snapshot ring (counter).
    pub const CONTROL_RING_EVICTIONS: &str = "pq_control_ring_evictions_total";
    /// Register entries read across PCIe (counter).
    pub const CONTROL_ENTRIES_READ: &str = "pq_control_entries_read_total";
    /// Bytes read across PCIe (counter).
    pub const CONTROL_BYTES_READ: &str = "pq_control_bytes_read_total";
    /// Freeze-and-read sim-time duration (histogram, ns).
    pub const CONTROL_READ_NS: &str = "pq_control_read_ns";
    /// Occupied queue-monitor entries per freeze — what freeze, spill and
    /// decode cost scale with (histogram, entries).
    pub const CONTROL_QM_OCCUPIED_ENTRIES: &str = "pq_control_qm_occupied_entries";
    /// Queue-monitor entries a freeze rebuilt rather than shared with the
    /// previous freeze — occupied : captured is how much of a freeze was
    /// unchanged (histogram, entries).
    pub const CONTROL_QM_CAPTURED_ENTRIES: &str = "pq_control_qm_captured_entries";
    /// Time-window cells a freeze copied rather than shared with the
    /// previous freeze; 0 when no window changed (histogram, cells).
    pub const CONTROL_TW_CAPTURED_CELLS: &str = "pq_control_tw_captured_cells";
    /// Live time-window query wall-clock latency (histogram, ns).
    pub const CONTROL_QUERY_NS: &str = "pq_control_query_ns";

    // -- pq-store ----------------------------------------------------------
    /// Checkpoints appended to a store (counter).
    pub const STORE_CHECKPOINTS_WRITTEN: &str = "pq_store_checkpoints_written_total";
    /// Segments sealed to disk (counter).
    pub const STORE_SEGMENTS_SEALED: &str = "pq_store_segments_sealed_total";
    /// Encoded segment bytes written, framing included (counter).
    pub const STORE_BYTES_WRITTEN: &str = "pq_store_bytes_written_total";
    /// Sealed segment size (histogram, bytes).
    pub const STORE_SEGMENT_BYTES: &str = "pq_store_segment_bytes";
    /// Segments decoded by a reader (counter).
    pub const STORE_SEGMENTS_DECODED: &str = "pq_store_segments_decoded_total";
    /// Checkpoints decoded by a reader (counter).
    pub const STORE_CHECKPOINTS_DECODED: &str = "pq_store_checkpoints_decoded_total";
    /// Replay-query wall-clock latency (histogram, ns).
    pub const STORE_REPLAY_QUERY_NS: &str = "pq_store_replay_query_ns";

    // -- pq-serve ----------------------------------------------------------
    /// Requests answered, label `kind`: queries executed to completion
    /// (`time_windows`, `queue_monitor`, `replay`, `rtt`, `standing`) and
    /// the reads the connection front answers (`health`, `shard_map`,
    /// `trace_dump`, `metrics`) (counter).
    pub const SERVE_REQUESTS: &str = "pq_serve_requests_total";
    /// Requests that ended in a typed error frame (counter, label `kind`).
    pub const SERVE_ERRORS: &str = "pq_serve_errors_total";
    /// Requests shed with a `Busy` frame — admission-queue overflow,
    /// per-connection in-flight cap, or accept-time connection cap
    /// (counter).
    pub const SERVE_SHED: &str = "pq_serve_shed_total";
    /// Wall-clock latency from admission to response flush (histogram, ns).
    pub const SERVE_REQUEST_NS: &str = "pq_serve_request_ns";
    /// Current admission-queue depth (gauge).
    pub const SERVE_QUEUE_DEPTH: &str = "pq_serve_queue_depth";
    /// Connections accepted (counter).
    pub const SERVE_CONNECTIONS: &str = "pq_serve_connections_total";
    /// Segment-decode cache hits (counter).
    pub const SERVE_CACHE_HIT: &str = "pq_serve_cache_hit_total";
    /// Segment-decode cache misses (counter).
    pub const SERVE_CACHE_MISS: &str = "pq_serve_cache_miss_total";
    /// Segments evicted from the decode cache (counter).
    pub const SERVE_CACHE_EVICTIONS: &str = "pq_serve_cache_evictions_total";
    /// Approximate bytes of decoded checkpoints held by the cache (gauge).
    pub const SERVE_CACHE_BYTES: &str = "pq_serve_cache_bytes";
    /// Seconds since the serve daemon started (gauge).
    pub const SERVE_UPTIME: &str = "pq_serve_uptime_seconds";

    // -- pq-router ---------------------------------------------------------
    /// Requests answered, label `kind`: queries routed to completion
    /// (`time_windows`, `queue_monitor`, `replay`, `rtt`, `standing`) and
    /// the reads the connection front answers (`health`, `shard_map`,
    /// `trace_dump`, `metrics`) (counter).
    pub const ROUTER_REQUESTS: &str = "pq_router_requests_total";
    /// Routed queries that ended in an error frame to the caller (counter).
    pub const ROUTER_ERRORS: &str = "pq_router_errors_total";
    /// Backends a routed query fanned out to (histogram, count).
    pub const ROUTER_FANOUT: &str = "pq_router_fanout_backends";
    /// Per-backend sub-query wall-clock latency (histogram, ns, label
    /// `backend`).
    pub const ROUTER_BACKEND_NS: &str = "pq_router_backend_ns";
    /// Sub-queries that failed on one owner and were retried on a replica
    /// (counter).
    pub const ROUTER_FAILOVERS: &str = "pq_router_failovers_total";
    /// Sub-query retries against the same backend after `Busy` or a
    /// transient error (counter).
    pub const ROUTER_RETRIES: &str = "pq_router_retries_total";
    /// Backends moved into quarantine after repeated failures (counter).
    pub const ROUTER_QUARANTINES: &str = "pq_router_quarantines_total";
    /// Backends readmitted from quarantine by a health probe (counter).
    pub const ROUTER_READMISSIONS: &str = "pq_router_readmissions_total";
    /// Backends currently quarantined (gauge).
    pub const ROUTER_QUARANTINED: &str = "pq_router_quarantined_backends";
    /// Routed queries answered degraded because every owner of some shard
    /// was down (counter).
    pub const ROUTER_SHARD_UNAVAILABLE: &str = "pq_router_shard_unavailable_total";
    /// Client connections the router refused with `Busy` at its
    /// connection cap (counter).
    pub const ROUTER_SHED: &str = "pq_router_shed_total";

    // -- pq-stream (standing queries, serve & router side) -----------------
    /// Standing-query subscriptions currently open: registered, stream
    /// not yet ended (gauge).
    pub const STREAM_SUBSCRIPTIONS: &str = "pq_stream_subscriptions";
    /// Windows closed across all standing subscriptions (counter).
    pub const STREAM_WINDOWS_CLOSED: &str = "pq_stream_windows_closed_total";
    /// Records that arrived behind the watermark and were dropped
    /// (counter).
    pub const STREAM_LATE_RECORDS: &str = "pq_stream_late_records_total";
    /// Bounded-state evictions (counter, label `kind` ∈ {`topk`,
    /// `window`}).
    pub const STREAM_EVICTIONS: &str = "pq_stream_evictions_total";
    /// Fired window results pushed to standing-query clients (counter).
    pub const STREAM_RESULTS: &str = "pq_stream_results_total";

    // -- pq-rtt (passive RTT diagnosis) ------------------------------------
    /// RTT samples measured, seq-match and spin-bit combined (counter,
    /// label `port`).
    pub const RTT_SAMPLES: &str = "pq_rtt_samples_total";
    /// Measured round-trip times; each sample's exemplar carries the flow
    /// id (histogram, ns, label `port`).
    pub const RTT_SAMPLE_NS: &str = "pq_rtt_sample_ns";
    /// Packets lost to a flow slot owned by another live flow (gauge,
    /// label `port`).
    pub const RTT_COLLISIONS: &str = "pq_rtt_collisions";
    /// Idle flows displaced from their slot (gauge, label `port`).
    pub const RTT_EVICTIONS: &str = "pq_rtt_evictions";
    /// Samples or timestamps dropped to bounded state (gauge, label
    /// `port`).
    pub const RTT_SAMPLE_DROPS: &str = "pq_rtt_sample_drops";
    /// RTT queries answered by a serve daemon (counter).
    pub const RTT_QUERIES: &str = "pq_rtt_queries_total";
    /// RTT report merges performed while answering queries (counter).
    pub const RTT_MERGES: &str = "pq_rtt_merges_total";

    // -- pq-trace (request-scoped distributed tracing) ---------------------
    /// Anonymous ring-buffer spans overwritten because the ring was full
    /// (counter; surfaces silent span loss so it is `--require`-gateable).
    pub const TRACE_SPANS_DROPPED: &str = "pq_trace_spans_dropped_total";
    /// Request traces committed to the per-process trace store (counter).
    pub const TRACE_COMMITTED: &str = "pq_trace_committed_total";
    /// Committed traces evicted from the recent ring (counter).
    pub const TRACE_DROPPED: &str = "pq_trace_dropped_total";
    /// Committed traces the JSON-lines spill failed to write (counter).
    pub const TRACE_SPILL_ERRORS: &str = "pq_trace_spill_errors_total";

    // -- pq-prof (continuous profiler) --------------------------------------
    /// Scope-stack samples captured by the profiling ticker (counter).
    pub const PROF_SAMPLES: &str = "pq_prof_samples_total";
    /// Stack samples dropped because the collapsed-stack map was full
    /// (counter; CI-gated so silent sample loss fails loudly).
    pub const PROF_SAMPLES_DROPPED: &str = "pq_prof_samples_dropped_total";
    /// Exact per-scope self wall time, total minus named children
    /// (counter, ns, label `scope`).
    pub const PROF_SCOPE_SELF_NS: &str = "pq_prof_scope_self_ns_total";
    /// Exact per-scope entry count (counter, label `scope`).
    pub const PROF_SCOPE_CALLS: &str = "pq_prof_scope_calls_total";
    /// Time from requesting a named lock to holding it (histogram, ns,
    /// label `lock`) — the regression gate for the ROADMAP lock-removal
    /// refactors.
    pub const LOCK_WAIT_NS: &str = "pq_lock_wait_ns";
    /// Time a named lock was held (histogram, ns, label `lock`).
    pub const LOCK_HOLD_NS: &str = "pq_lock_hold_ns";
    /// Acquisitions of a named lock (counter, label `lock`).
    pub const LOCK_ACQUISITIONS: &str = "pq_lock_acquisitions_total";
    /// Acquisitions that found the lock already held (counter, label
    /// `lock`).
    pub const LOCK_CONTENDED: &str = "pq_lock_contended_total";
    /// Acquisitions that recovered a poisoned lock (counter, label
    /// `lock`).
    pub const LOCK_POISONED: &str = "pq_lock_poisoned_total";

    // -- cross-crate -------------------------------------------------------
    /// Build provenance carrier: constant 1, labels `version`, `commit`.
    pub const BUILD_INFO: &str = "pq_build_info";

    // -- pqsim watch (client side) -----------------------------------------
    /// Metrics snapshots polled by a watch client (counter).
    pub const WATCH_UPDATES: &str = "pq_watch_updates_total";
    /// Metric series changed between consecutive polls, every series
    /// of the first poll included (counter).
    pub const WATCH_SERIES_CHANGED: &str = "pq_watch_series_changed_total";
    /// Alert rules currently firing as seen by the watch client (gauge).
    pub const WATCH_ALERTS_FIRING: &str = "pq_watch_alerts_firing";
    /// Alert transitions observed (counter, label `kind` ∈ {`firing`,
    /// `resolved`}).
    pub const WATCH_ALERT_EVENTS: &str = "pq_watch_alert_events_total";

    /// One-line `# HELP` text for a metric name; a generic line for
    /// names outside the schema (exposition must never lack HELP).
    pub fn help(name: &str) -> &'static str {
        match name {
            SWITCH_ENQUEUED => "Packets admitted to a port's queue.",
            SWITCH_DEQUEUED => "Packets transmitted from a port.",
            SWITCH_DROPPED => "Packets tail-dropped at a port.",
            SWITCH_TX_BYTES => "Bytes transmitted from a port.",
            SWITCH_RESIDENCE_NS => "Per-packet queue residence, enqueue to dequeue, in ns.",
            SWITCH_MAX_DEPTH_CELLS => "Highest queue depth observed, in cells.",
            CONTROL_POLLS_ATTEMPTED => "Freeze-and-read attempts, first tries and retries alike.",
            CONTROL_POLLS_FAILED => "Freeze-and-read attempts that failed outright.",
            CONTROL_POLLS_RETRIED => "Attempts that were retries of earlier failures.",
            CONTROL_POLLS_STALLED => "Attempts rejected inside an injected stall window.",
            CONTROL_CHECKPOINTS_STORED => "Checkpoints successfully stored.",
            CONTROL_CHECKPOINTS_DROPPED => "Checkpoints read but lost before storage.",
            CONTROL_COVERAGE_GAPS => "Coverage gaps recorded.",
            CONTROL_GAP_NS => "Nanoseconds covered by recorded gaps.",
            CONTROL_BACKOFF_CEILING => "Failures whose backoff had reached the policy ceiling.",
            CONTROL_DP_REJECTED => "Data-plane triggers rejected while a special read was out.",
            CONTROL_SPILL_ERRORS => "Checkpoint-spill sink writes that failed.",
            CONTROL_SPILL_WAIT_NS => {
                "Time a spill hand-off blocked on the writer's full queue, in ns."
            }
            CONTROL_RING_EVICTIONS => "Checkpoints evicted from the in-RAM snapshot ring.",
            CONTROL_ENTRIES_READ => "Register entries read across PCIe.",
            CONTROL_BYTES_READ => "Bytes read across PCIe.",
            CONTROL_READ_NS => "Freeze-and-read sim-time duration in ns.",
            CONTROL_QM_OCCUPIED_ENTRIES => "Occupied queue-monitor entries per freeze.",
            CONTROL_QM_CAPTURED_ENTRIES => {
                "Queue-monitor entries per freeze not shared with the previous freeze."
            }
            CONTROL_TW_CAPTURED_CELLS => {
                "Time-window cells per freeze not shared with the previous freeze."
            }
            CONTROL_QUERY_NS => "Live time-window query wall-clock latency in ns.",
            STORE_CHECKPOINTS_WRITTEN => "Checkpoints appended to a store.",
            STORE_SEGMENTS_SEALED => "Segments sealed to disk.",
            STORE_BYTES_WRITTEN => "Encoded segment bytes written, framing included.",
            STORE_SEGMENT_BYTES => "Sealed segment size in bytes.",
            STORE_SEGMENTS_DECODED => "Segments decoded by a reader.",
            STORE_CHECKPOINTS_DECODED => "Checkpoints decoded by a reader.",
            STORE_REPLAY_QUERY_NS => "Replay-query wall-clock latency in ns.",
            SERVE_REQUESTS => "Queries executed and front reads answered, by kind.",
            SERVE_ERRORS => "Requests that ended in a typed error frame, by kind.",
            SERVE_SHED => "Requests shed with a Busy frame.",
            SERVE_REQUEST_NS => "Wall-clock latency from admission to response flush, in ns.",
            SERVE_QUEUE_DEPTH => "Current admission-queue depth.",
            SERVE_CONNECTIONS => "Connections accepted.",
            SERVE_CACHE_HIT => "Segment-decode cache hits.",
            SERVE_CACHE_MISS => "Segment-decode cache misses.",
            SERVE_CACHE_EVICTIONS => "Segments evicted from the decode cache.",
            SERVE_CACHE_BYTES => "Approximate bytes of decoded checkpoints held by the cache.",
            SERVE_UPTIME => "Seconds since the serve daemon started.",
            ROUTER_REQUESTS => "Queries routed and front reads answered, by kind.",
            ROUTER_ERRORS => "Routed queries that ended in an error frame to the caller.",
            ROUTER_FANOUT => "Backends a routed query fanned out to.",
            ROUTER_BACKEND_NS => "Per-backend sub-query wall-clock latency in ns.",
            ROUTER_FAILOVERS => "Sub-queries retried on a replica after an owner failed.",
            ROUTER_RETRIES => "Sub-query retries against the same backend.",
            ROUTER_QUARANTINES => "Backends moved into quarantine after repeated failures.",
            ROUTER_READMISSIONS => "Backends readmitted from quarantine by a health probe.",
            ROUTER_QUARANTINED => "Backends currently quarantined.",
            ROUTER_SHARD_UNAVAILABLE => {
                "Routed queries degraded because every owner of a shard was down."
            }
            ROUTER_SHED => "Client connections refused with a Busy frame at the connection cap.",
            STREAM_SUBSCRIPTIONS => "Standing-query subscriptions currently registered.",
            STREAM_WINDOWS_CLOSED => "Windows closed across all standing subscriptions.",
            STREAM_LATE_RECORDS => "Stream records dropped for arriving behind the watermark.",
            STREAM_EVICTIONS => "Bounded-state evictions in standing subscriptions, by kind.",
            STREAM_RESULTS => "Fired window results pushed to standing-query clients.",
            RTT_SAMPLES => "RTT samples measured, seq-match and spin-bit combined.",
            RTT_SAMPLE_NS => "Measured round-trip times in ns; exemplars carry the flow id.",
            RTT_COLLISIONS => "Packets lost to a flow slot owned by another live flow.",
            RTT_EVICTIONS => "Idle flows displaced from their RTT table slot.",
            RTT_SAMPLE_DROPS => "RTT samples or timestamps dropped to bounded state.",
            RTT_QUERIES => "RTT queries answered by a serve daemon.",
            RTT_MERGES => "RTT report merges performed while answering queries.",
            PROF_SAMPLES => "Scope-stack samples captured by the profiling ticker.",
            PROF_SAMPLES_DROPPED => {
                "Stack samples dropped because the collapsed-stack map was full."
            }
            PROF_SCOPE_SELF_NS => {
                "Exact per-scope self wall time in ns, total minus named children."
            }
            PROF_SCOPE_CALLS => "Exact per-scope entry count.",
            LOCK_WAIT_NS => "Time from requesting a named lock to holding it, in ns.",
            LOCK_HOLD_NS => "Time a named lock was held, in ns.",
            LOCK_ACQUISITIONS => "Acquisitions of a named lock.",
            LOCK_CONTENDED => "Acquisitions that found the lock already held.",
            LOCK_POISONED => "Acquisitions that recovered a poisoned lock.",
            TRACE_SPANS_DROPPED => "Ring-buffer spans overwritten because the ring was full.",
            TRACE_COMMITTED => "Request traces committed to the per-process trace store.",
            TRACE_DROPPED => "Committed traces evicted from the recent-trace ring.",
            TRACE_SPILL_ERRORS => "Committed traces the JSON-lines trace spill failed to write.",
            BUILD_INFO => "Build provenance: constant 1 with version and commit labels.",
            WATCH_UPDATES => "Metrics snapshots polled by this watch client.",
            WATCH_SERIES_CHANGED => "Metric series changed between consecutive polls.",
            WATCH_ALERTS_FIRING => "Alert rules currently firing.",
            WATCH_ALERT_EVENTS => "Alert transitions observed, by kind.",
            _ => "PrintQueue reproduction metric.",
        }
    }

    // -- span names --------------------------------------------------------
    /// One packet's enqueue→dequeue residence in a queue.
    pub const SPAN_RESIDENCE: &str = "enqueue_dequeue_residence";
    /// One control-plane freeze-and-read of a port's registers.
    pub const SPAN_FREEZE_READ: &str = "freeze_and_read";
    /// One set-period rotation of a port's time-window rings.
    pub const SPAN_WINDOW_ROTATION: &str = "window_rotation";
    /// One store segment sealed and flushed (covers the sim-time span of
    /// the checkpoints inside it).
    pub const SPAN_SEGMENT_FLUSH: &str = "segment_flush";
    /// One offline replay query (covers the queried sim-time interval).
    pub const SPAN_REPLAY_QUERY: &str = "replay_query";
    /// One served query, admission to response flush (wall-clock ns since
    /// server start — the serving plane has no sim clock).
    pub const SPAN_SERVE_REQUEST: &str = "serve_request";

    // -- distributed-trace span names (request-scoped, Unix-epoch ns) ------
    /// Router: one routed query end to end.
    pub const SPAN_ROUTE: &str = "route";
    /// Router: one failover retry of a shard sub-query on a replica.
    pub const SPAN_FAILOVER: &str = "failover";
    /// Router: merging per-shard partial results into the answer.
    pub const SPAN_MERGE: &str = "merge";
    /// Serve: time a request sat in the admission queue before a worker
    /// picked it up.
    pub const SPAN_ADMISSION_WAIT: &str = "admission_wait";
    /// Serve: worker execution, dequeue to response flush.
    pub const SPAN_WORKER_EXEC: &str = "worker_exec";
    /// Serve/store: decoding (or cache-fetching) the segments a replay
    /// query needs; tagged `cache=hit|miss|mixed`.
    pub const SPAN_SEGMENT_DECODE: &str = "segment_decode";
    /// Standing query: closing one subscription's windows at registration.
    pub const SPAN_WINDOW_CLOSE: &str = "window_close";
    /// Standing query: pushing the window results to the subscriber.
    pub const SPAN_EMIT: &str = "emit";
    /// Serve: gathering and decoding the RTT reports one query needs.
    pub const SPAN_RTT_MEASURE: &str = "rtt_measure";
    /// Serve/router: folding partial RTT reports into one answer.
    pub const SPAN_RTT_MERGE: &str = "rtt_merge";
}

/// The shared observability handle: one registry, one span tracer, and
/// one request-trace store.
///
/// Cloning is cheap (all three halves are `Arc`-shared) and every clone
/// records into the same storage, so a single `Telemetry` can be handed to
/// the switch, the analysis program, and the store writer of one
/// simulation.
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Registry,
    spans: Arc<SpanTracer>,
    traces: Arc<trace::TraceStore>,
    /// When set, [`Telemetry::snapshot`] folds the process-global
    /// pq-prof state (scope self times, lock wait/hold histograms,
    /// sample counters) into the snapshot. Opt-in per plane: only the
    /// plane that *owns* the process view (a serve daemon, a router, a
    /// `pqsim` run) should set it — per-port fleet planes must not, or
    /// a fleet-level merge would count the process profile once per
    /// member.
    export_prof: Arc<std::sync::atomic::AtomicBool>,
}

impl Telemetry {
    /// A fresh, empty telemetry plane with tracing disabled.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span tracer.
    pub fn spans(&self) -> &SpanTracer {
        &self.spans
    }

    /// The request-scoped distributed-trace store.
    pub fn traces(&self) -> &trace::TraceStore {
        &self.traces
    }

    /// Enable or disable span tracing at runtime. Disabled tracing costs
    /// one relaxed atomic load per instrumentation site.
    pub fn set_tracing(&self, enabled: bool) {
        self.spans.set_enabled(enabled);
    }

    /// Is span tracing currently enabled?
    pub fn tracing_enabled(&self) -> bool {
        self.spans.is_enabled()
    }

    /// Fold the process-global profiler series (`pq_prof_*`,
    /// `pq_lock_*`) into every future [`Telemetry::snapshot`] of this
    /// plane. Set by the plane that owns the process view so lock-wait
    /// p99s and scope hotspots are queryable through every existing
    /// exposition path — the metrics wire, Prometheus text, `pqsim
    /// telemetry --require`, and `pqsim watch`.
    pub fn set_export_prof(&self, on: bool) {
        self.export_prof
            .store(on, std::sync::atomic::Ordering::Relaxed);
    }

    /// Does this plane's snapshot carry the profiler series?
    pub fn export_prof(&self) -> bool {
        self.export_prof.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Snapshot every metric (plain data; mergeable, exportable).
    ///
    /// The snapshot also carries the tracing loss counters
    /// (`pq_trace_spans_dropped_total`, `pq_trace_committed_total`,
    /// `pq_trace_dropped_total`, `pq_trace_spill_errors_total`) derived
    /// from the span ring and trace store, so silent span loss is visible
    /// in every exposition path —
    /// wire, Prometheus text, and `pqsim telemetry --require` alike.
    /// Counters merge by addition, so fleet rollups stay correct.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut snap = self.registry.snapshot();
        snap.insert(
            MetricKey::new(names::TRACE_SPANS_DROPPED, &[]),
            MetricValue::Counter(self.spans.dropped()),
        );
        snap.insert(
            MetricKey::new(names::TRACE_COMMITTED, &[]),
            MetricValue::Counter(self.traces.committed()),
        );
        snap.insert(
            MetricKey::new(names::TRACE_DROPPED, &[]),
            MetricValue::Counter(self.traces.dropped()),
        );
        snap.insert(
            MetricKey::new(names::TRACE_SPILL_ERRORS, &[]),
            MetricValue::Counter(self.traces.spill_errors()),
        );
        if self.export_prof() {
            inject_prof(&mut snap);
        }
        snap
    }
}

/// Fold the process-global pq-prof state into a snapshot as ordinary
/// registry series; `pq_lock_wait_ns{lock="freeze"}` quantiles computed
/// downstream are the profiler's own, off the one histogram type.
fn inject_prof(snap: &mut RegistrySnapshot) {
    let prof = pq_prof::ProfileReport::capture();
    let mut put = |name: &str, labels: &[(&str, &str)], value: MetricValue| {
        snap.insert(MetricKey::new(name, labels), value);
    };
    let counter = MetricValue::Counter;
    // The registry's own histogram type, minus exemplars.
    let hist = |h: &HistSnapshot| {
        let (hist, exemplars) = (h.clone(), Vec::new());
        MetricValue::Histogram(Box::new(HistogramSnapshot { hist, exemplars }))
    };
    put(names::PROF_SAMPLES, &[], counter(prof.samples_total));
    put(
        names::PROF_SAMPLES_DROPPED,
        &[],
        counter(prof.samples_dropped),
    );
    for scope in &prof.scopes {
        let labels = [("scope", scope.name.as_str())];
        put(names::PROF_SCOPE_SELF_NS, &labels, counter(scope.self_ns()));
        put(names::PROF_SCOPE_CALLS, &labels, counter(scope.calls));
    }
    for lock in &prof.locks {
        let labels = [("lock", lock.name.as_str())];
        put(
            names::LOCK_ACQUISITIONS,
            &labels,
            counter(lock.acquisitions),
        );
        put(names::LOCK_CONTENDED, &labels, counter(lock.contended));
        put(names::LOCK_POISONED, &labels, counter(lock.poisoned));
        put(names::LOCK_WAIT_NS, &labels, hist(&lock.wait));
        put(names::LOCK_HOLD_NS, &labels, hist(&lock.hold));
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("metrics", &self.registry.len())
            .field("tracing", &self.tracing_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let tel = Telemetry::new();
        let other = tel.clone();
        tel.registry().counter(names::SWITCH_ENQUEUED, &[]).inc();
        other.registry().counter(names::SWITCH_ENQUEUED, &[]).inc();
        let snap = tel.snapshot();
        assert_eq!(snap.counter(names::SWITCH_ENQUEUED, &[]), Some(2));
    }

    #[test]
    fn snapshot_carries_trace_loss_counters() {
        let tel = Telemetry::new();
        let snap = tel.snapshot();
        assert_eq!(snap.counter(names::TRACE_SPANS_DROPPED, &[]), Some(0));
        assert_eq!(snap.counter(names::TRACE_COMMITTED, &[]), Some(0));
        // Ring overwrites surface in the next snapshot.
        let small = SpanTracer::with_capacity(1);
        small.set_enabled(true);
        small.record("a", 0, 1, 0);
        small.record("b", 1, 2, 0);
        assert_eq!(small.dropped(), 1);
        // And trace commits do too, through any clone.
        tel.traces().commit(trace::Trace {
            trace_id: 1,
            root_span: 1,
            duration_ns: 5,
            slow: false,
            spans: Vec::new(),
        });
        let snap = tel.clone().snapshot();
        assert_eq!(snap.counter(names::TRACE_COMMITTED, &[]), Some(1));
    }

    #[test]
    fn spill_errors_surface_as_a_counter() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let tel = Telemetry::new();
        let errors = |tel: &Telemetry| tel.snapshot().counter(names::TRACE_SPILL_ERRORS, &[]);
        assert_eq!(errors(&tel), Some(0), "the series exists before any sink");
        tel.traces()
            .set_sink(trace::TraceSink::new(Box::new(Broken)));
        let commit = |id| {
            tel.traces().commit(trace::Trace {
                trace_id: id,
                root_span: 1,
                duration_ns: 5,
                slow: false,
                spans: Vec::new(),
            })
        };
        commit(1);
        commit(2);
        assert_eq!(errors(&tel), Some(2));
        // Replacing the sink keeps the count.
        tel.traces()
            .set_sink(trace::TraceSink::new(Box::new(Vec::new())));
        commit(3);
        assert_eq!(errors(&tel), Some(2));
        assert_eq!(
            tel.traces().recent().len(),
            3,
            "a failed spill still commits"
        );
        assert!(names::help(names::TRACE_SPILL_ERRORS).contains("spill"));
    }

    #[test]
    fn export_prof_injects_lock_series() {
        let _g = pq_prof::test_lock();
        pq_prof::reset();
        let m = pq_prof::PqMutex::new("telemetry_test_lock", 0u32);
        *m.lock() += 1;
        let tel = Telemetry::new();
        // Off by default: no profiler series in the snapshot.
        assert!(tel
            .snapshot()
            .counter(names::LOCK_ACQUISITIONS, &[("lock", "telemetry_test_lock")])
            .is_none());
        tel.set_export_prof(true);
        let snap = tel.clone().snapshot();
        assert_eq!(
            snap.counter(names::LOCK_ACQUISITIONS, &[("lock", "telemetry_test_lock")]),
            Some(1)
        );
        let wait = snap
            .histogram(names::LOCK_WAIT_NS, &[("lock", "telemetry_test_lock")])
            .expect("wait histogram exported");
        assert_eq!(wait.count, 1);
        pq_prof::reset();
    }

    #[test]
    fn tracing_toggles_through_any_clone() {
        let tel = Telemetry::new();
        let other = tel.clone();
        assert!(!tel.tracing_enabled());
        other.set_tracing(true);
        assert!(tel.tracing_enabled());
        tel.spans().record(names::SPAN_FREEZE_READ, 10, 20, 0);
        assert_eq!(other.spans().snapshot().len(), 1);
    }
}
