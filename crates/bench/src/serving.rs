//! The serving fixture: the synthetic archives, the local fleet and the
//! client storm that the serving experiments and the serving tests share.
//!
//! * Drives — [`drive_program`] is the tests' two-port drive (one poll
//!   every 64 ns, a coverage gap at 1 000–1 600 ns);
//!   [`drive_polls`] is the experiments' per-poll drive (50 dequeues and
//!   10 monitor enqueues per poll). [`spill_program`] and
//!   [`spill_polls`] run them into an in-memory `.pqa`.
//! * [`Fleet`] — N pq-serve backends named `shard-{i}`, over shipped
//!   replicas of one archive, one archive as written, or live programs,
//!   optionally behind a pq-router. It owns its temp files: dropping it,
//!   by a panic too, stops what still runs and removes them.
//! * [`Storm`] — a closed-loop client storm counting `ok`/`busy` with
//!   sorted latencies, and [`best_of_rounds`] to compare scenarios.

use pq_core::control::{AnalysisProgram, ControlConfig};
use pq_core::params::TimeWindowConfig;
use pq_core::printqueue::PrintQueueConfig;
use pq_core::snapshot::QueryInterval;
use pq_packet::FlowId;
use pq_router::{BackendSpec, Router, RouterConfig, RouterHandle};
use pq_serve::{Client, ClientError, Request, ServeConfig, Server, ServerHandle, Sources};
use pq_store::{ship_archive, SegmentPolicy, SharedStoreWriter, StoreWriter};
use pq_telemetry::{parse_prometheus, Telemetry};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The ports of the tests' two-port drive.
pub const PORTS: [u16; 2] = [0, 3];

/// The tests' window configuration: t_set = 64 + 128 = 192 ns, short
/// enough that a modest drive loop yields dozens of checkpoints.
pub fn tw_small() -> TimeWindowConfig {
    TimeWindowConfig::new(0, 1, 6, 2)
}

/// Four checkpoints a segment, so short drives still span many segments.
pub fn tiny_segments() -> SegmentPolicy {
    SegmentPolicy {
        checkpoints_per_segment: 4,
        ..SegmentPolicy::default()
    }
}

/// Drive a two-port program for `until` ns with a poll every 64 ns and a
/// silence window (no polls) in the middle that opens a coverage gap.
/// `flow_offset` shifts every flow id, so shards of a routed fleet can own
/// disjoint populations; it is 0 for a single program. Its checkpoints
/// and gaps at `until` = 640 are pinned by `tests/data/checkpoint_archive.pqa`.
pub fn drive_program(
    spill: Option<SharedStoreWriter<Vec<u8>>>,
    until: u64,
    flow_offset: u32,
) -> AnalysisProgram {
    let tw = tw_small();
    let mut ap = AnalysisProgram::new(&PrintQueueConfig {
        control: ControlConfig {
            poll_period: 64,
            max_snapshots: 10_000,
        },
        ports: PORTS.to_vec(),
        qm_entries: 32,
        ..PrintQueueConfig::single_port(tw, 1)
    });
    if let Some(handle) = spill {
        ap.set_spill(Box::new(handle));
    }
    let silence = 1_000..1_600; // > t_set: forces a recorded gap
    for t in 0..until {
        for (i, &port) in PORTS.iter().enumerate() {
            if t % (i as u64 + 2) == 0 {
                let flow = (t % 7) as u32 + i as u32 * 100;
                ap.record_dequeue(port, FlowId(flow_offset + flow), t);
            }
            if t % 5 == 0 {
                let flow = FlowId(flow_offset + (t % 3) as u32);
                ap.qm_enqueue(port, 0, flow, (t % 20) as u32, t);
            }
        }
        if t % 64 == 0 && !silence.contains(&t) {
            ap.on_tick(t);
        }
    }
    ap
}

/// [`drive_program`] for `until` ns spilled into an in-memory `.pqa`,
/// mirroring what `pqsim archive` does.
pub fn spill_program(until: u64, policy: SegmentPolicy) -> (AnalysisProgram, Vec<u8>) {
    spill(tw_small(), policy, |handle| {
        drive_program(Some(handle), until, 0)
    })
}

/// The tests' query sweep over a 2 000 ns drive.
pub fn sweep_intervals() -> Vec<QueryInterval> {
    vec![
        QueryInterval::new(0, 50),
        QueryInterval::new(100, 300),
        QueryInterval::new(900, 1_700), // straddles the silence gap
        QueryInterval::new(500, 1_999),
        QueryInterval::new(0, 1_999),
        QueryInterval::new(1_900, 5_000), // reaches past the data
        QueryInterval::new(3_000, 4_000), // entirely past the data
    ]
}

/// Poll period of the experiments' drive, in ns.
pub const POLL_PERIOD: u64 = 4_096;

/// Minimum packet transmission delay of the experiments' drive, in ns:
/// the `d` of every query against it.
pub const MIN_PKT_TX_DELAY: u64 = 110;

/// The experiments' window configuration: the paper's WS/DM data-plane
/// configuration (§7.1).
pub fn tw() -> TimeWindowConfig {
    TimeWindowConfig::new(6, 1, 10, 3)
}

/// Drive a program over `ports` for `polls` poll periods: each period
/// carries 50 dequeues from a rotating population of 96 flows and a
/// monitor enqueue every fifth one, on every port alike, so every window
/// holds flows and nonzero depths.
pub fn drive_polls(
    ports: &[u16],
    polls: u64,
    spill: Option<SharedStoreWriter<Vec<u8>>>,
) -> AnalysisProgram {
    let mut ap = AnalysisProgram::new(&PrintQueueConfig {
        control: ControlConfig {
            poll_period: POLL_PERIOD,
            max_snapshots: polls as usize + 8,
        },
        ports: ports.to_vec(),
        qm_entries: 64,
        ..PrintQueueConfig::single_port(tw(), MIN_PKT_TX_DELAY)
    });
    if let Some(handle) = spill {
        ap.set_spill(Box::new(handle));
    }
    let mut t = 0u64;
    for i in 0..polls {
        for p in 0..50u64 {
            let flow = FlowId(((i * 7 + p) % 96) as u32);
            let at = t + p * (POLL_PERIOD / 64);
            for &port in ports {
                ap.record_dequeue(port, flow, at);
                if p % 5 == 0 {
                    ap.qm_enqueue(port, 0, flow, (p % 24) as u32, at);
                }
            }
        }
        t += POLL_PERIOD;
        ap.on_tick(t);
    }
    ap
}

/// [`drive_polls`] spilled into an in-memory `.pqa`.
pub fn spill_polls(ports: &[u16], polls: u64, policy: SegmentPolicy) -> (AnalysisProgram, Vec<u8>) {
    spill(tw(), policy, |handle| {
        drive_polls(ports, polls, Some(handle))
    })
}

/// `k` rotating query intervals of four polls each, spread over a
/// [`drive_polls`] run of `polls` periods.
pub fn intervals(polls: u64, k: u64) -> Vec<(u64, u64)> {
    let span = polls * POLL_PERIOD;
    (0..k)
        .map(|i| {
            let from = (span * i) / k;
            (from, from + 4 * POLL_PERIOD)
        })
        .collect()
}

/// Run `drive` with a spill into an in-memory `.pqa` under `policy`,
/// record the program's health for each of its ports, and seal it.
fn spill(
    tw: TimeWindowConfig,
    policy: SegmentPolicy,
    drive: impl FnOnce(SharedStoreWriter<Vec<u8>>) -> AnalysisProgram,
) -> (AnalysisProgram, Vec<u8>) {
    let handle = SharedStoreWriter::new(StoreWriter::new(Vec::new(), tw, policy).unwrap());
    let ap = drive(handle.clone());
    for port in ap.ports() {
        handle.with(|w| w.set_health(port, ap.health())).unwrap();
    }
    let bytes = handle.finish().unwrap();
    (ap, bytes)
}

static NEXT_FILE: AtomicUsize = AtomicUsize::new(0);

/// Local pq-serve backends, each on an ephemeral port with its own
/// telemetry plane, optionally fronted by a pq-router.
///
/// Backend `i` is named `shard-{i}` (its `ServeConfig::shard` and its
/// `BackendSpec` name). Dropping the fleet shuts down the router and
/// every backend still running and removes the fleet's temp files.
#[derive(Default)]
pub struct Fleet {
    backends: Vec<Option<ServerHandle>>,
    specs: Vec<BackendSpec>,
    planes: Vec<Telemetry>,
    router: Option<(RouterHandle, Telemetry)>,
    files: Vec<PathBuf>,
}

impl Fleet {
    /// One backend per entry of `sources`.
    pub fn new(sources: Vec<Sources>, config: &ServeConfig) -> Fleet {
        Fleet::default().start(sources, config)
    }

    /// `n` backends, each over its own replica of `archive` shipped with
    /// `ship_archive` (every segment verified before it is published).
    pub fn replicas(archive: &[u8], n: usize, config: &ServeConfig) -> Fleet {
        let mut fleet = Fleet::default();
        let src = fleet.temp_file();
        std::fs::write(&src, archive).unwrap();
        let sources = (0..n)
            .map(|_| {
                let replica = fleet.temp_file();
                ship_archive(&src, &replica).unwrap();
                Sources {
                    archive: Some(replica),
                    ..Sources::default()
                }
            })
            .collect();
        fleet.start(sources, config)
    }

    /// One backend over `archive` written as is, not shipped: nothing is
    /// verified, so a deliberately corrupt archive serves too.
    pub fn archive(archive: &[u8], config: &ServeConfig) -> Fleet {
        let mut fleet = Fleet::default();
        let path = fleet.temp_file();
        std::fs::write(&path, archive).unwrap();
        let sources = Sources {
            archive: Some(path),
            ..Sources::default()
        };
        fleet.start(vec![sources], config)
    }

    /// One backend per live program.
    pub fn live(programs: &[Arc<AnalysisProgram>], config: &ServeConfig) -> Fleet {
        let sources = programs
            .iter()
            .map(|ap| Sources {
                live: Some(Arc::clone(ap)),
                ..Sources::default()
            })
            .collect();
        Fleet::new(sources, config)
    }

    /// Put a router over every backend in front of the fleet.
    pub fn route(mut self, config: RouterConfig) -> Fleet {
        let plane = Telemetry::new();
        let router = Router::bind(("127.0.0.1", 0), self.specs.clone(), config, &plane)
            .unwrap()
            .spawn()
            .unwrap();
        self.router = Some((router, plane));
        self
    }

    /// A fresh temp-file path, removed when the fleet drops.
    fn temp_file(&mut self) -> PathBuf {
        let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("pq_fleet_{}_{n}.pqa", std::process::id()));
        self.files.push(path.clone());
        path
    }

    fn start(mut self, sources: Vec<Sources>, config: &ServeConfig) -> Fleet {
        for (i, sources) in sources.into_iter().enumerate() {
            let name = format!("shard-{i}");
            let config = ServeConfig {
                shard: name.clone(),
                ..config.clone()
            };
            let plane = Telemetry::new();
            let handle = Server::bind(("127.0.0.1", 0), sources, config, &plane)
                .unwrap()
                .spawn()
                .unwrap();
            self.specs.push(BackendSpec {
                name,
                addr: handle.addr().to_string(),
            });
            self.backends.push(Some(handle));
            self.planes.push(plane);
        }
        self
    }

    /// Backend `i`'s address (also after it stopped).
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.specs[i].addr.parse().unwrap()
    }

    /// The backends as a router sees them.
    pub fn specs(&self) -> &[BackendSpec] {
        &self.specs
    }

    /// Backend `i`'s telemetry plane.
    pub fn plane(&self, i: usize) -> &Telemetry {
        &self.planes[i]
    }

    /// The router's address; panics without [`Fleet::route`].
    pub fn router(&self) -> SocketAddr {
        self.router.as_ref().expect("fleet has no router").0.addr()
    }

    /// The router's telemetry plane; panics without [`Fleet::route`].
    pub fn router_plane(&self) -> &Telemetry {
        &self.router.as_ref().expect("fleet has no router").1
    }

    /// The replica backend `i` of [`Fleet::replicas`] serves.
    pub fn replica(&self, i: usize) -> PathBuf {
        self.files[i + 1].clone()
    }

    /// Abruptly terminate backend `i`: the in-process `SIGKILL`.
    pub fn kill(&mut self, i: usize) {
        self.take(i).kill().unwrap();
    }

    /// Drain and stop backend `i`.
    pub fn stop(&mut self, i: usize) {
        self.take(i).shutdown().unwrap();
    }

    fn take(&mut self, i: usize) -> ServerHandle {
        self.backends[i].take().expect("backend already stopped")
    }

    /// Stop the router, then drain and stop every backend still running,
    /// failing on any error.
    pub fn shutdown(mut self) {
        self.halt().unwrap();
    }

    /// Stop everything still running; the first error, if any.
    fn halt(&mut self) -> std::io::Result<()> {
        let router = self.router.take().map(|(router, _)| router.shutdown());
        let backends = self.backends.iter_mut().filter_map(Option::take);
        let results: Vec<_> = router
            .into_iter()
            .chain(backends.map(ServerHandle::shutdown))
            .collect();
        results.into_iter().collect()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = self.halt();
        for path in &self.files {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The outcome of a closed-loop client storm.
#[derive(Debug, Default)]
pub struct Storm {
    /// Requests answered.
    pub ok: usize,
    /// Requests refused with `Busy`.
    pub busy: usize,
    /// Wall time of the whole storm, in ms.
    pub wall_ms: f64,
    /// Latency of every answered request, in ms, sorted.
    pub latencies_ms: Vec<f64>,
}

impl Storm {
    /// Run `clients` threads, each connecting once to `addr` and sending
    /// `per_client` requests in turn, request `i` of client `c` being
    /// `request(c, i)`. Every answer must name flows. A `Busy` answer is
    /// counted and its `retry_after_ms` slept before the next request; any
    /// other error panics.
    pub fn run(
        addr: SocketAddr,
        clients: usize,
        per_client: usize,
        request: impl Fn(usize, usize) -> Request + Sync,
    ) -> Storm {
        let start = Instant::now();
        let parts: Vec<Storm> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..clients)
                .map(|c| {
                    let request = &request;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        let mut part = Storm::default();
                        for i in 0..per_client {
                            let req = request(c, i);
                            let t0 = Instant::now();
                            match client.query(req) {
                                Ok(res) => {
                                    assert!(!res.estimates.counts.is_empty());
                                    part.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                                    part.ok += 1;
                                }
                                Err(ClientError::Busy { retry_after_ms }) => {
                                    part.busy += 1;
                                    let backoff = Duration::from_millis(retry_after_ms.into());
                                    std::thread::sleep(backoff);
                                }
                                Err(e) => panic!("client {c} request {i} failed: {e}"),
                            }
                        }
                        part
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let mut storm = Storm {
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            ..Storm::default()
        };
        for part in parts {
            storm.ok += part.ok;
            storm.busy += part.busy;
            storm.latencies_ms.extend(part.latencies_ms);
        }
        storm.latencies_ms.sort_by(f64::total_cmp);
        storm
    }

    /// Answered requests per second of wall time.
    pub fn qps(&self) -> f64 {
        self.ok as f64 / (self.wall_ms / 1e3)
    }

    /// The `p` quantile of the latencies, in ms.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms, p)
    }
}

/// The `p` quantile of an ascending sample, nearest rank; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Compare `scenarios` storms fairly: one discarded warm-up run of
/// scenario 0 (page cache, CPU frequency, allocator arenas), then
/// `rounds` rounds each running every scenario once, in order, so drift
/// over the run cannot be charged to the scenarios that run later. Keeps,
/// per scenario, the run with the highest qps: the least
/// scheduler-perturbed estimate of what it sustains.
pub fn best_of_rounds<X>(
    scenarios: usize,
    rounds: usize,
    mut run: impl FnMut(usize) -> (Storm, X),
) -> Vec<(Storm, X)> {
    let _ = run(0);
    let mut best: Vec<Option<(Storm, X)>> = (0..scenarios).map(|_| None).collect();
    for _ in 0..rounds {
        for (slot, kept) in best.iter_mut().enumerate() {
            let out = run(slot);
            if kept.as_ref().is_none_or(|(b, _)| out.0.qps() > b.qps()) {
                *kept = Some(out);
            }
        }
    }
    best.into_iter().map(Option::unwrap).collect()
}

/// The sum of every sample of `name` in the Prometheus exposition the
/// daemon or router at `addr` answers.
pub fn metric(addr: SocketAddr, name: &str) -> f64 {
    let text = Client::connect(addr).unwrap().metrics().unwrap();
    let samples = parse_prometheus(&text).unwrap();
    samples
        .iter()
        .filter(|m| m.name == name)
        .map(|m| m.value)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 6.0);
        assert_eq!(percentile(&sorted, 0.9), 10.0);
        assert_eq!(percentile(&sorted, 0.99), 11.0);
        assert_eq!(percentile(&sorted, 1.0), 11.0);
        // (4 - 1) * 0.5 = 1.5 rounds up to index 2.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let storm = Storm {
            latencies_ms: sorted.to_vec(),
            ..Storm::default()
        };
        assert_eq!(storm.percentile(0.5), 6.0);
    }

    #[test]
    fn a_fleet_dropped_by_a_panic_leaves_no_file() {
        let files = Mutex::new(Vec::new());
        let (_, bytes) = spill_program(500, tiny_segments());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let fleet =
                Fleet::replicas(&bytes, 2, &ServeConfig::default()).route(RouterConfig::default());
            assert!(fleet.files.iter().all(|path| path.exists()));
            *files.lock().unwrap() = fleet.files.clone();
            let mut client = Client::connect(fleet.router()).unwrap();
            client.health().unwrap();
            panic!("a failed assertion");
        }));
        assert!(outcome.is_err());
        let files = files.into_inner().unwrap();
        assert_eq!(files.len(), 3, "the source and two replicas");
        for path in files {
            assert!(!path.exists(), "{} outlived its fleet", path.display());
        }
    }
}
