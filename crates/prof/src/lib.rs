//! pq-prof: a dependency-free continuous profiler for the reproduction.
//!
//! PrintQueue's thesis is that diagnosis must live in the data path with
//! bounded overhead; this crate applies the same bar to the pipeline
//! itself — and, as the bottom of the crate graph, holds what every
//! crate that keeps a histogram or decodes bytes shares: [`hist`], the one
//! log2 histogram, [`codec`], the one byte codec, and [`escape_into`], the
//! one JSON string escaper. Three pieces, all
//! process-global (a process has one profile, the way it has one allocator):
//!
//! * [`scope!`] — `prof::scope!("serve/worker_exec")` call sites that
//!   maintain per-thread scope stacks and exact per-scope aggregates
//!   (calls, total/self wall time). Disabled —
//!   the default — a site costs one relaxed atomic load, the same
//!   contract as `SpanTracer`.
//! * [`sampler`] — a background ticker that folds live scope stacks
//!   into bounded collapsed-stack counts, the format flamegraphs eat.
//! * [`lock`] — [`PqMutex`], a named instrumented mutex facade
//!   publishing wait/hold log2 histograms and contention counters, and
//!   recovering poisoning instead of propagating it. These histograms
//!   are the before/after evidence for the ROADMAP lock-removal work.
//!
//! [`ProfileReport`] snapshots all of it into canonical plain data with
//! a validated binary codec and an associative, commutative merge — so
//! profile dumps travel the serve wire, merge in the router, and stay
//! byte-identical however they are folded.

pub mod codec;
pub mod hist;
pub mod lock;
pub mod report;
pub mod sampler;
pub mod scope;

pub use hist::{bucket_index, bucket_lower_bound, bucket_upper_bound, Hist, HistSnapshot};
pub use lock::{lock_stats_enabled, set_lock_stats, LockSnapshot, PqGuard, PqMutex};
pub use report::{
    escape_into, ProfileReport, ScopeEntry, StackEntry, MAX_ENCODED_LEN, MAX_NAME_LEN,
    MAX_WIRE_LOCKS, MAX_WIRE_SCOPES, MAX_WIRE_STACKS,
};
pub use sampler::{
    sample_once, sampler_running, samples_dropped, samples_total, start_sampler, stop_sampler,
    MAX_DISTINCT_STACKS,
};
pub use scope::{enabled, set_enabled, ScopeGuard, Site, MAX_DEPTH};

/// Clear every aggregate — scope stats, lock stats, captured stacks and
/// sample counters. Interned names and thread registrations survive.
/// For benches and tests; concurrent recorders may interleave.
pub fn reset() {
    scope::reset_scopes();
    lock::reset_locks();
    sampler::reset_sampler_state();
}

/// Serialize tests and benches that exercise the process-global
/// profiler state. Not part of the public API surface proper, but
/// exported so integration tests outside this crate can use it too.
#[doc(hidden)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}
