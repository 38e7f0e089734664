//! Extension experiment: pq-serve query throughput under concurrency.
//!
//! Spills a checkpoint archive, serves it with the pq-serve daemon, and
//! drives it with concurrent clients issuing replay queries over a small
//! rotating set of intervals. Three scenarios:
//!
//! * `cache_on`  — default worker pool with the shared LRU decode cache:
//!   repeated intervals are answered from decoded segments;
//! * `cache_off` — same workload with the cache disabled, so every query
//!   re-reads and re-decodes its segments;
//! * `shedding`  — one slow worker and a tiny queue under double the
//!   client load: admission control must answer the overflow with
//!   explicit `Busy` frames while the admitted remainder completes.
//!
//! Reported per scenario: achieved qps, p50/p99 request latency, and the
//! ok/busy split. The observed cache hit-rate and shed-rate are stamped
//! into the `meta` block of `results/ext_serve_throughput.json`, since
//! they qualify every row in the file.

use pq_bench::report::{write_json_with_meta, CommonArgs, Table};
use pq_core::control::{AnalysisProgram, ControlConfig};
use pq_core::params::TimeWindowConfig;
use pq_packet::FlowId;
use pq_serve::{Client, ClientError, Request, ServeConfig, Server, Sources};
use pq_store::{SegmentPolicy, SharedStoreWriter, StoreWriter};
use pq_telemetry::{parse_prometheus, Telemetry};
use serde::{Serialize, Value};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const POLL_PERIOD: u64 = 4_096;
const PORT: u16 = 0;

#[derive(Serialize)]
struct Row {
    scenario: String,
    clients: usize,
    workers: usize,
    requests: usize,
    ok: usize,
    busy: usize,
    wall_ms: f64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn tw() -> TimeWindowConfig {
    TimeWindowConfig::new(6, 1, 10, 3)
}

/// Spill `n_checkpoints` polls of synthetic traffic into a `.pqa` file.
fn build_archive(n_checkpoints: u64, path: &PathBuf) {
    let writer = StoreWriter::new(Vec::new(), tw(), SegmentPolicy::default()).unwrap();
    let handle = SharedStoreWriter::new(writer);
    let mut ap = AnalysisProgram::new(
        tw(),
        ControlConfig {
            poll_period: POLL_PERIOD,
            max_snapshots: n_checkpoints as usize + 8,
        },
        &[PORT],
        64,
        1,
        110,
    );
    ap.set_spill(Box::new(handle.clone()));
    let mut t = 0u64;
    for i in 0..n_checkpoints {
        for p in 0..50u64 {
            let flow = FlowId(((i * 7 + p) % 96) as u32);
            ap.record_dequeue(PORT, flow, t + p * (POLL_PERIOD / 64));
        }
        t += POLL_PERIOD;
        ap.on_tick(t);
    }
    handle.with(|w| w.set_health(PORT, ap.health())).unwrap();
    std::fs::write(path, handle.finish().unwrap()).unwrap();
}

/// The rotating query mix: `k` narrow intervals spread over the archive.
fn intervals(n_checkpoints: u64, k: u64) -> Vec<(u64, u64)> {
    let span = n_checkpoints * POLL_PERIOD;
    (0..k)
        .map(|i| {
            let from = (span * i) / k;
            (from, from + 4 * POLL_PERIOD)
        })
        .collect()
}

struct Outcome {
    ok: usize,
    busy: usize,
    wall_ms: f64,
    latencies_ms: Vec<f64>,
    cache_hit_rate: f64,
    shed_total: f64,
}

/// Run `clients` threads of `per_client` replay queries each against a
/// freshly bound server, then read the server's own metrics before
/// shutting it down.
fn run_scenario(
    archive: &Path,
    config: ServeConfig,
    clients: usize,
    per_client: usize,
    mix: &[(u64, u64)],
) -> Outcome {
    let plane = Telemetry::new();
    let server = Server::bind(
        ("127.0.0.1", 0),
        Sources {
            live: None,
            archive: Some(archive.to_path_buf()),
            rtt: Vec::new(),
        },
        config,
        &plane,
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr: SocketAddr = handle.addr();

    let start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let mix = mix.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut ok = 0usize;
                let mut busy = 0usize;
                let mut latencies = Vec::with_capacity(per_client);
                for r in 0..per_client {
                    let (from, to) = mix[(c + r) % mix.len()];
                    let t0 = Instant::now();
                    match client.query(Request::Replay {
                        port: PORT,
                        from,
                        to,
                        d: 110,
                    }) {
                        Ok(res) => {
                            assert!(!res.estimates.counts.is_empty());
                            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                            ok += 1;
                        }
                        Err(ClientError::Busy { retry_after_ms }) => {
                            busy += 1;
                            std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms)));
                        }
                        Err(e) => panic!("query failed: {e}"),
                    }
                }
                (ok, busy, latencies)
            })
        })
        .collect();
    let mut ok = 0;
    let mut busy = 0;
    let mut latencies_ms = Vec::new();
    for t in threads {
        let (o, b, l) = t.join().unwrap();
        ok += o;
        busy += b;
        latencies_ms.extend(l);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut probe = Client::connect(addr).unwrap();
    let metrics = parse_prometheus(&probe.metrics().unwrap()).unwrap();
    let sample = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or(0.0)
    };
    let hits = sample("pq_serve_cache_hit_total");
    let misses = sample("pq_serve_cache_miss_total");
    let cache_hit_rate = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    let shed_total = sample("pq_serve_shed_total");
    drop(probe);
    handle.shutdown().unwrap();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Outcome {
        ok,
        busy,
        wall_ms,
        latencies_ms,
        cache_hit_rate,
        shed_total,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args = CommonArgs::parse();
    let (n_checkpoints, clients, per_client) = if args.quick {
        (512u64, 4usize, 40usize)
    } else {
        (2_048, 8, 120)
    };
    let mix = intervals(n_checkpoints, 8);
    let archive = std::env::temp_dir().join(format!(
        "pq_ext_serve_throughput_{}.pqa",
        std::process::id()
    ));
    eprintln!(
        "[ext_serve_throughput] spilling {n_checkpoints} checkpoints, \
         {clients} clients x {per_client} queries"
    );
    build_archive(n_checkpoints, &archive);

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "scenario", "clients", "workers", "ok", "busy", "qps", "p50 ms", "p99 ms",
    ]);
    let mut push = |name: &str, workers: usize, n_clients: usize, out: &Outcome| {
        let requests = n_clients * per_client;
        let qps = out.ok as f64 / (out.wall_ms / 1e3);
        let p50 = percentile(&out.latencies_ms, 0.50);
        let p99 = percentile(&out.latencies_ms, 0.99);
        table.row(vec![
            name.to_string(),
            format!("{n_clients}"),
            format!("{workers}"),
            format!("{}", out.ok),
            format!("{}", out.busy),
            format!("{qps:.0}"),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
        ]);
        rows.push(Row {
            scenario: name.to_string(),
            clients: n_clients,
            workers,
            requests,
            ok: out.ok,
            busy: out.busy,
            wall_ms: out.wall_ms,
            qps,
            p50_ms: p50,
            p99_ms: p99,
        });
    };

    let cache_on = run_scenario(&archive, ServeConfig::default(), clients, per_client, &mix);
    push(
        "cache_on",
        ServeConfig::default().workers,
        clients,
        &cache_on,
    );

    let cache_off = run_scenario(
        &archive,
        ServeConfig {
            cache_bytes: 0,
            ..ServeConfig::default()
        },
        clients,
        per_client,
        &mix,
    );
    push(
        "cache_off",
        ServeConfig::default().workers,
        clients,
        &cache_off,
    );

    let shed_clients = clients * 2;
    let shedding = run_scenario(
        &archive,
        ServeConfig {
            workers: 1,
            queue_cap: 2,
            work_delay: Duration::from_millis(1),
            ..ServeConfig::default()
        },
        shed_clients,
        per_client,
        &mix,
    );
    push("shedding", 1, shed_clients, &shedding);

    let shed_attempts = (shed_clients * per_client) as f64;
    let shed_rate = shedding.busy as f64 / shed_attempts;
    assert!(
        shedding.busy > 0,
        "the overload scenario must shed at least once"
    );
    assert_eq!(
        shedding.busy as f64, shedding.shed_total,
        "every Busy answer must be counted by pq_serve_shed_total"
    );

    table.print("Extension — pq-serve throughput: cache on/off and shedding");
    println!(
        "cache hit-rate {:.1}% (on) vs {:.1}% (off); shed-rate {:.1}% under overload",
        cache_on.cache_hit_rate * 100.0,
        cache_off.cache_hit_rate * 100.0,
        shed_rate * 100.0
    );
    write_json_with_meta(
        "ext_serve_throughput",
        &rows,
        false,
        vec![
            (
                "cache_hit_rate".to_string(),
                Value::F64(cache_on.cache_hit_rate),
            ),
            ("shed_rate".to_string(), Value::F64(shed_rate)),
        ],
    );
    let _ = std::fs::remove_file(&archive);
}
