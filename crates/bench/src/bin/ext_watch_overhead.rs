//! Extension experiment: cost of live metrics subscriptions on serving.
//!
//! Re-runs the `ext_serve_throughput` cache-on workload — concurrent
//! clients issuing replay queries against a spilled archive — three
//! times, with 0, 1, and 4 metrics subscribers attached for the whole
//! run. Each subscriber streams snapshot-delta updates at 250 ms —
//! four times the watch dashboard's default 1 s cadence, to be
//! conservative — while the query load runs; the publisher thread and
//! the per-update snapshot/diff work are the overhead being measured.
//!
//! Reported per scenario: achieved qps, p50/p99 request latency, and
//! how many updates/changed-series the subscribers saw. The headline
//! numbers — fractional qps regression with 1 and with 4 subscribers
//! relative to the 0-subscriber baseline — are stamped into the `meta`
//! block of `results/ext_watch_overhead.json`.

use pq_bench::report::{write_json_with_meta, CommonArgs, Table};
use pq_core::control::{AnalysisProgram, ControlConfig};
use pq_core::params::TimeWindowConfig;
use pq_packet::FlowId;
use pq_serve::{Client, ClientError, Request, ServeConfig, Server, Sources};
use pq_store::{SegmentPolicy, SharedStoreWriter, StoreWriter};
use pq_telemetry::Telemetry;
use serde::{Serialize, Value};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const POLL_PERIOD: u64 = 4_096;
const PORT: u16 = 0;
const SUB_INTERVAL_MS: u32 = 250;

#[derive(Serialize)]
struct Row {
    scenario: String,
    subscribers: usize,
    clients: usize,
    requests: usize,
    ok: usize,
    busy: usize,
    wall_ms: f64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    updates_seen: usize,
    series_seen: usize,
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
    updates_seen: usize,
    series_seen: usize,
}

/// Drive the query workload with `subscribers` live metrics streams
/// attached for the whole run. Subscribers fold updates until the
/// server's shutdown drain delivers the `last` frame, so they observe
/// every phase of the workload including teardown.
fn run_scenario(
    archive: &Path,
    clients: usize,
    per_client: usize,
    mix: &[(u64, u64)],
    subscribers: usize,
) -> Outcome {
    let plane = Telemetry::new();
    let server = Server::bind(
        ("127.0.0.1", 0),
        Sources {
            live: None,
            archive: Some(archive.to_path_buf()),
            rtt: Vec::new(),
        },
        ServeConfig::default(),
        &plane,
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr: SocketAddr = handle.addr();

    let sub_threads: Vec<_> = (0..subscribers)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let first = client.subscribe(SUB_INTERVAL_MS, 0).unwrap();
                let mut updates = 1usize;
                let mut series = first.changed.iter().count();
                while let Ok(update) = client.next_update() {
                    updates += 1;
                    series += update.changed.iter().count();
                    if update.last {
                        break;
                    }
                }
                (updates, series)
            })
        })
        .collect();
    // Let the worker pool and every subscription settle before the
    // measured region starts — unconditionally, so the 0-subscriber
    // baseline gets the same grace period as the watched runs.
    std::thread::sleep(Duration::from_millis(50));

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

    // Shut down; the drain sends each subscriber its final update.
    handle.shutdown().unwrap();
    let mut updates_seen = 0;
    let mut series_seen = 0;
    for t in sub_threads {
        let (u, s) = t.join().unwrap();
        updates_seen += u;
        series_seen += s;
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Outcome {
        ok,
        busy,
        wall_ms,
        latencies_ms,
        updates_seen,
        series_seen,
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
    let (n_checkpoints, clients, per_client, trials) = if args.quick {
        (512u64, 4usize, 100usize, 2usize)
    } else {
        (2_048, 8, 2_000, 3)
    };
    let mix = intervals(n_checkpoints, 8);
    let archive =
        std::env::temp_dir().join(format!("pq_ext_watch_overhead_{}.pqa", std::process::id()));
    eprintln!(
        "[ext_watch_overhead] spilling {n_checkpoints} checkpoints, \
         {clients} clients x {per_client} queries, subscribers 0/1/4"
    );
    build_archive(n_checkpoints, &archive);

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "scenario", "subs", "clients", "ok", "busy", "qps", "p50 ms", "p99 ms", "updates", "series",
    ]);
    let mut push = |name: &str, subs: usize, out: &Outcome| -> f64 {
        let requests = clients * per_client;
        let qps = out.ok as f64 / (out.wall_ms / 1e3);
        let p50 = percentile(&out.latencies_ms, 0.50);
        let p99 = percentile(&out.latencies_ms, 0.99);
        table.row(vec![
            name.to_string(),
            format!("{subs}"),
            format!("{clients}"),
            format!("{}", out.ok),
            format!("{}", out.busy),
            format!("{qps:.0}"),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            format!("{}", out.updates_seen),
            format!("{}", out.series_seen),
        ]);
        rows.push(Row {
            scenario: name.to_string(),
            subscribers: subs,
            clients,
            requests,
            ok: out.ok,
            busy: out.busy,
            wall_ms: out.wall_ms,
            qps,
            p50_ms: p50,
            p99_ms: p99,
            updates_seen: out.updates_seen,
            series_seen: out.series_seen,
        });
        qps
    };

    // One discarded full-length pass to warm the OS page cache for the
    // archive, then `trials` interleaved rounds over the three scenarios
    // (0, 1, 4 subscribers in every round) so progressive system warming
    // — page cache, CPU frequency, allocator arenas — cannot bias any
    // one scenario. Best-of per scenario: the fastest run is the least
    // scheduler-perturbed estimate of what the configuration sustains.
    let _ = run_scenario(&archive, clients, per_client, &mix, 0);
    let mut best: [Option<Outcome>; 3] = [None, None, None];
    for _ in 0..trials {
        for (slot, subs) in [0usize, 1, 4].into_iter().enumerate() {
            let out = run_scenario(&archive, clients, per_client, &mix, subs);
            let better = best[slot]
                .as_ref()
                .is_none_or(|b| out.ok as f64 / out.wall_ms > b.ok as f64 / b.wall_ms);
            if better {
                best[slot] = Some(out);
            }
        }
    }
    let [base, one, four] = best.map(Option::unwrap);

    let qps_0 = push("subs_0", 0, &base);
    let qps_1 = push("subs_1", 1, &one);
    assert!(
        one.updates_seen >= 2,
        "the subscriber must see at least the initial snapshot and the drain"
    );
    let qps_4 = push("subs_4", 4, &four);
    assert!(four.updates_seen >= 8, "all four subscribers must stream");

    // Fractional qps regression vs. the 0-subscriber baseline. Negative
    // values mean the watched run measured faster (scheduling noise).
    let overhead = |qps: f64| (qps_0 - qps) / qps_0;
    let overhead_1 = overhead(qps_1);
    let overhead_4 = overhead(qps_4);

    table.print("Extension — watch overhead: serve qps with 0/1/4 metrics subscribers");
    println!(
        "qps {:.0} (0 subs) -> {:.0} (1 sub, {:+.2}%) -> {:.0} (4 subs, {:+.2}%)",
        qps_0,
        qps_1,
        overhead_1 * 100.0,
        qps_4,
        overhead_4 * 100.0
    );
    write_json_with_meta(
        "ext_watch_overhead",
        &rows,
        false,
        vec![
            ("overhead_1_sub".to_string(), Value::F64(overhead_1)),
            ("overhead_4_subs".to_string(), Value::F64(overhead_4)),
            (
                "sub_interval_ms".to_string(),
                Value::U64(u64::from(SUB_INTERVAL_MS)),
            ),
        ],
    );
    let _ = std::fs::remove_file(&archive);
}
