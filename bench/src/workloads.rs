//! The four workloads.
//!
//! Every workload drives the whole chain (packet → `pq-switch` → time
//! windows + queue monitor → freeze-and-read → `.pqa` spill → `pq-serve`
//! → `pq-router` → client), so every metric is measured on every
//! workload, and no two workloads share an input: each has its own
//! traffic family or time-window configuration, so no (metric, workload)
//! row repeats another. What differs is the traffic, the polling density,
//! where the measured seconds go, which route the queries take, and how
//! the victim intervals relate to the daemons' decode cache. The *why* of
//! each is in `BENCHMARK.json` and `README.md`.

use crate::sut::{IngestConfig, Traffic};

/// Which front door the measured queries use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Straight to one `pq-serve` daemon.
    Direct,
    /// Through the `pq-router` in front of both daemons.
    Routed,
}

impl Route {
    pub fn label(self) -> &'static str {
        match self {
            Route::Direct => "direct",
            Route::Routed => "routed",
        }
    }
}

/// How the measured queries' intervals are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Victims drawn uniformly over the whole archive.
    Uniform,
    /// Eight victims from one congestion episode, rotated.
    Hot,
}

impl Mix {
    pub fn label(self) -> &'static str {
        match self {
            Mix::Uniform => "uniform",
            Mix::Hot => "hot8",
        }
    }
}

/// `precision_mean` / `recall_mean` of one workload at one traffic seed,
/// as measured when the benchmark was defined and cut after the sixth
/// decimal. Both are exact for a commit (the graded victims are drawn
/// with the traffic seed), so a run whose value falls below the floor
/// answers differently.
#[derive(Debug, Clone, Copy)]
pub struct Floor {
    pub traffic_seed: u64,
    pub precision: f64,
    pub recall: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub traffic: Traffic,
    /// Length of the generated trace, simulated milliseconds.
    pub trace_ms: u64,
    pub ingest: IngestConfig,
    /// Share of `--seconds` spent on ingest rounds; the rest goes to the
    /// closed-loop query phase.
    pub ingest_share: f64,
    pub route: Route,
    pub mix: Mix,
    /// Accuracy floors for traffic seeds 12 (the default) and 13 (held
    /// out); other traffic seeds have none.
    pub floors: [Floor; 2],
}

/// Paper §7.1 UW configuration: set period ≈ 22 ms, so a 200 ms trace is
/// polled nine times — per-packet cost is nearly all the work.
const UW: IngestConfig = IngestConfig {
    tw: (6, 2, 12, 4),
    d: 64,
};

/// Paper §7.1 WS/DM configuration: set period ≈ 63 ms, four checkpoints
/// in 200 ms.
const WS_DM: IngestConfig = IngestConfig {
    tw: (10, 1, 12, 4),
    d: 1200,
};

/// The poll-dense configuration of the repo's serve/overhead benches:
/// set period 458 µs, so a 200 ms trace takes 436 checkpoints.
const DENSE: IngestConfig = IngestConfig {
    tw: (6, 1, 10, 3),
    d: 110,
};

const fn floors(seed_12: (f64, f64), seed_13: (f64, f64)) -> [Floor; 2] {
    [
        Floor {
            traffic_seed: 12,
            precision: seed_12.0,
            recall: seed_12.1,
        },
        Floor {
            traffic_seed: 13,
            precision: seed_13.0,
            recall: seed_13.1,
        },
    ]
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest_uw",
        traffic: Traffic::Uw,
        trace_ms: 200,
        ingest: UW,
        ingest_share: 0.7,
        route: Route::Routed,
        mix: Mix::Uniform,
        floors: floors((0.756898, 0.935561), (0.775142, 0.920305)),
    },
    Workload {
        name: "ingest_ckpt",
        traffic: Traffic::Dm,
        trace_ms: 200,
        ingest: DENSE,
        ingest_share: 0.7,
        route: Route::Direct,
        mix: Mix::Uniform,
        floors: floors((0.999342, 0.988283), (0.996867, 0.975061)),
    },
    Workload {
        name: "query_cold",
        traffic: Traffic::Ws,
        trace_ms: 200,
        ingest: DENSE,
        ingest_share: 0.25,
        route: Route::Direct,
        mix: Mix::Uniform,
        floors: floors((0.997793, 0.978613), (0.998455, 0.981546)),
    },
    Workload {
        name: "query_hot",
        traffic: Traffic::Ws,
        trace_ms: 200,
        ingest: WS_DM,
        ingest_share: 0.25,
        route: Route::Routed,
        mix: Mix::Hot,
        floors: floors((0.950889, 0.846522), (0.957572, 0.907451)),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Victim sample size (live queries, oracle digests).
pub const VICTIMS: usize = 2_000;
/// Victims graded against ground truth: the oracle scans its whole record
/// list per victim, which on the 2.6 M-packet UW trace costs more than
/// the measured phase if all 2 000 are graded.
pub const GRADED_VICTIMS: usize = 500;
/// Size of the hot set.
pub const HOT_VICTIMS: usize = 8;
/// Client threads = connections in the closed-loop query phase.
pub const CLIENTS: usize = 2;
/// Times set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// `[ingest rounds, live queries, query slice]` cycles the measured
/// seconds are cut into, so every metric samples the same stretches of
/// machine time.
pub const CYCLES: usize = 8;
