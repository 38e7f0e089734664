//! # printqueue — a Rust reproduction of PrintQueue (SIGCOMM 2022)
//!
//! PrintQueue diagnoses per-packet queueing delay inside a switch by
//! answering: *which flows caused this packet to wait?* It classifies
//! culprits into three groups (§2 of the paper) — **direct** (dequeued
//! during the victim's queueing), **indirect** (the rest of the congestion
//! regime), and **original** (the packets that built the queue to its
//! current level) — and tracks all three in the data plane with two novel
//! structures: hierarchical **time windows** and the **queue monitor**.
//!
//! The original system runs on an Intel Tofino ASIC; this reproduction
//! implements the complete stack in Rust on a discrete-event switch
//! simulator (see `DESIGN.md` for the substitution rationale):
//!
//! * [`packet`] — wire formats, 5-tuple flow keys, telemetry ground truth;
//! * [`switch`] — the programmable-switch substrate: queues, schedulers,
//!   traffic manager, register arrays, hooks;
//! * [`trace`] — the paper's workloads (UW / WS / DM) and scenarios
//!   (microburst, incast, the §7.2 case study);
//! * [`core`] — PrintQueue itself: Algorithms 1–3, the coefficient theory,
//!   the queue monitor, the control-plane analysis program, culprit ground
//!   truth and accuracy metrics;
//! * [`baselines`] — HashPipe, FlowRadar, and linear per-packet storage,
//!   the comparison points of the paper's evaluation;
//! * [`store`] — the segmented, indexed, crash-tolerant `.pqa` binary
//!   store for checkpoint archives, with streaming spill from the
//!   control plane and time-range-pruned offline queries;
//! * [`telemetry`] — the observability plane: a lock-free metrics
//!   registry (counters, gauges, log2 histograms), sim-clock span
//!   tracing, and Prometheus / Chrome-trace exporters shared by the
//!   switch, control plane, and store;
//! * [`serve`] — the concurrent diagnosis-query service: a TCP daemon
//!   and client speaking a small versioned binary protocol over live
//!   register state and `.pqa` archives, with a shared LRU decode cache
//!   and explicit load shedding ([`queryfmt`] renders answers
//!   identically for local and remote queries);
//! * [`router`] — the scale-out tier in front of N serve daemons:
//!   rendezvous-sharded, replicated scatter-gather with transparent
//!   failover, quarantine-with-probe, and bit-identical single-shard
//!   answers (same wire protocol, so clients point at it unchanged);
//! * [`stream`] — standing continuous queries: a typed query language
//!   (predicate / window / top-k / emit clauses), tumbling and sliding
//!   window operators with watermark-driven deterministic closes under
//!   out-of-order arrival, and bounded per-subscription state via a
//!   space-saving top-k summary with explicit eviction accounting. The
//!   daemon answers a subscription in one pass when it registers, on
//!   the connection's reader thread, sending `StandingQueryResult`
//!   frames; the router fans a standing query to every shard and merges
//!   per-window partials associatively;
//! * [`rtt`] — passive RTT diagnosis: seq-match and QUIC spin-bit
//!   detectors over a budgeted per-flow table of log2 RTT histograms,
//!   canonical mergeable reports that spill into `.pqa` archives and
//!   answer `Rtt` wire queries bit-identically through the router, and
//!   a QUIC-like ground-truth workload generator.
//!
//! ## Quickstart
//!
//! ```
//! use printqueue::prelude::*;
//!
//! // A microburst: 40 flows × 25 packets converging on one 10 Gbps port.
//! let trace = printqueue::trace::scenario::microburst(0, 50_000, 40, 25, 200, 0, 7);
//!
//! // Attach PrintQueue (paper's WS/DM parameters) and run the switch.
//! let tw = TimeWindowConfig::new(6, 1, 10, 3);
//! let mut pq = PrintQueue::new(PrintQueueConfig::single_port(tw, 160));
//! let mut sink = TelemetrySink::new();
//! let mut sw = Switch::new(SwitchConfig::single_port(10.0, 32_768));
//! {
//!     let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut pq, &mut sink];
//!     sw.run(trace.arrivals.iter().copied(), &mut hooks, tw.set_period());
//! }
//!
//! // Diagnose the most-delayed packet.
//! let victim = sink.records.iter().max_by_key(|r| r.meta.deq_timedelta).unwrap();
//! let est = pq.analysis().query_time_windows(
//!     0,
//!     QueryInterval::new(victim.meta.enq_timestamp, victim.deq_timestamp()),
//! );
//! assert!(!est.counts.is_empty(), "culprits found");
//! ```

pub use pq_baselines as baselines;
pub use pq_core as core;
pub use pq_packet as packet;
pub use pq_prof as prof;
pub use pq_router as router;
pub use pq_rtt as rtt;
pub use pq_serve as serve;
pub use pq_store as store;
pub use pq_stream as stream;
pub use pq_switch as switch;
pub use pq_telemetry as telemetry;
pub use pq_trace as trace;

pub mod queryfmt;
pub mod tracefile;

/// The names almost every user of the library needs.
pub mod prelude {
    pub use pq_core::control::{AnalysisProgram, CoverageGap, QueryResult, QueueMonitorAnswer};
    pub use pq_core::culprits::GroundTruth;
    pub use pq_core::faults::{FaultConfig, FaultProfile, LatencyModel, RetryPolicy};
    pub use pq_core::metrics::{precision_recall, PrecisionRecall};
    pub use pq_core::params::TimeWindowConfig;
    pub use pq_core::printqueue::{DataPlaneTrigger, PrintQueue, PrintQueueConfig};
    pub use pq_core::snapshot::QueryInterval;
    pub use pq_packet::{FlowId, FlowKey, Nanos, NanosExt, SimPacket};
    pub use pq_switch::{Arrival, QueueHooks, Switch, SwitchConfig, TelemetrySink};
    pub use pq_trace::workload::{Workload, WorkloadKind};
}
