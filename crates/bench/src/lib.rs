//! Experiment harness regenerating the PrintQueue paper's evaluation.
//!
//! One binary per table/figure lives in `src/bin/`; shared machinery here:
//!
//! * [`harness`] — build a switch + PrintQueue + baselines for a workload,
//!   run it, and return the telemetry ground truth alongside the queryable
//!   state;
//! * [`victims`] — the §7.1 victim-sampling methodology: bucket victims by
//!   the queue depth they encountered and sample per bucket;
//! * [`report`] — aligned text tables and JSON result files under
//!   `results/`;
//! * [`serving`] — the serving fixture: synthetic archives, a local
//!   pq-serve/pq-router fleet and a client storm, shared by the serving
//!   experiments and the root serving tests.
//!
//! All experiments are deterministic given their seeds. Run with
//! `--release`; the UW workloads push millions of packets per run.

pub mod eval;
pub mod harness;
pub mod report;
pub mod serving;
pub mod sweep;
pub mod victims;

pub use harness::{BaselineHook, RunConfig, RunOutput};
pub use victims::{DepthBucket, Victim, DEPTH_BUCKETS};
