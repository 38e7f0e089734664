//! PrintQueue core: the paper's primary contribution.
//!
//! PrintQueue (SIGCOMM 2022) diagnoses per-packet queueing delay by tracking
//! the *entire congestion regime*: which packets directly delayed a victim,
//! which indirectly delayed it, and which originally built the queue to its
//! current level. This crate implements the complete system:
//!
//! * [`params`] — the time-window configuration (m0, α, k, T) and the
//!   derived cell/window/set periods of §4.1;
//! * [`tts`] — trimmed-timestamp bit manipulation (Figure 5);
//! * [`time_windows`] — the hierarchical ring-buffer structure and the
//!   per-packet mapping/passing rules of Algorithm 1;
//! * [`coefficient`] — the count-recovery coefficients of Algorithm 2,
//!   grounded in Theorems 1–3;
//! * [`queue_monitor`] — the sparse stack tracking the original causes of
//!   congestion (§5);
//! * [`snapshot`] — frozen register state, the stale-cell filter
//!   (Algorithm 3), and query execution over arbitrary intervals (§6.3);
//! * [`control`] — the analysis program: periodic register freezing and
//!   polling, on-demand data-plane queries, snapshot storage (§6.1–6.2);
//! * [`faults`] — deterministic fault injection for the control plane
//!   (read failures, latency, stalls, dropped checkpoints) plus the
//!   retry/backoff policy governing recovery;
//! * [`printqueue`] — the per-switch facade wiring everything to the
//!   `pq-switch` hook points, with per-port activation;
//! * [`culprits`] — the §2 culprit taxonomy computed exactly from ground
//!   truth telemetry, used as the evaluation reference;
//! * [`metrics`] — precision/recall and Top-K metrics (§7.1 methodology);
//! * [`resources`] — SRAM and control-plane bandwidth models behind
//!   Figures 13–15.

pub mod coefficient;
pub mod control;
pub mod culprits;
pub mod diagnosis;
pub mod error_bounds;
pub mod faults;
pub mod metrics;
pub mod params;
pub mod printqueue;
pub mod queue_monitor;
pub mod register_layout;
pub mod resources;
pub mod snapshot;
pub mod time_windows;
pub mod tts;
pub mod validation;

pub use control::{
    AnalysisProgram, Checkpoint, CheckpointSink, ControlConfig, CoverageGap, QueryResult,
    QueueMonitorAnswer,
};
pub use culprits::{CulpritReport, GroundTruth};
pub use diagnosis::{diagnose, CongestionPattern, Diagnosis};
pub use faults::{FaultConfig, FaultInjector, FaultProfile, LatencyModel, RetryPolicy};
pub use metrics::{precision_recall, ControlHealth, FlowCounts, PrecisionRecall};
pub use params::TimeWindowConfig;
pub use printqueue::{PrintQueue, PrintQueueConfig};
pub use queue_monitor::QueueMonitor;
pub use snapshot::{QueryInterval, TimeWindowSnapshot};
pub use time_windows::TimeWindowSet;
