//! Extension experiment: standing-query detection latency and overhead.
//!
//! Two measurements over a live analysis program served by pq-serve:
//!
//! 1. **Detection latency** — wall time from registering a standing
//!    depth-threshold query to receiving its first fired window, with
//!    1, 4, and 16 subscriptions registering concurrently. The path
//!    includes the evaluator's 10 ms service tick, so this bounds the
//!    event-to-emission delay an operator sees.
//! 2. **Serving overhead** — achieved qps and request latency of
//!    concurrent live time-window queries with 0/1/4/16 standing
//!    subscriptions attached for the whole run, versus the
//!    0-subscription baseline.
//!
//! Headline numbers — detection p50 and the fractional qps regression
//! at 1/4/16 subscriptions — are stamped into the `meta` block of
//! `results/ext_stream_latency.json`.

use pq_bench::report::{write_json_with_meta, CommonArgs, Table};
use pq_core::control::{AnalysisProgram, ControlConfig};
use pq_core::params::TimeWindowConfig;
use pq_packet::FlowId;
use pq_serve::{Client, ClientError, Request, ServeConfig, Server, Sources};
use pq_telemetry::Telemetry;
use serde::{Serialize, Value};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const POLL_PERIOD: u64 = 4_096;
const PORT: u16 = 0;

#[derive(Serialize)]
struct Row {
    scenario: String,
    subscriptions: usize,
    clients: usize,
    ok: usize,
    busy: usize,
    wall_ms: f64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    detect_p50_ms: f64,
    detect_max_ms: f64,
    windows_seen: usize,
}

fn tw() -> TimeWindowConfig {
    TimeWindowConfig::new(6, 1, 10, 3)
}

/// A live program with steady per-poll traffic and queue-monitor
/// activity, so every tumbling window holds flows and nonzero depths.
fn build_live(n_checkpoints: u64) -> Arc<AnalysisProgram> {
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
    let mut t = 0u64;
    for i in 0..n_checkpoints {
        for p in 0..50u64 {
            let flow = FlowId(((i * 7 + p) % 96) as u32);
            let at = t + p * (POLL_PERIOD / 64);
            ap.record_dequeue(PORT, flow, at);
            if p % 5 == 0 {
                ap.qm_enqueue(PORT, 0, flow, (p % 24) as u32, at);
            }
        }
        t += POLL_PERIOD;
        ap.on_tick(t);
    }
    Arc::new(ap)
}

fn spawn_server(ap: Arc<AnalysisProgram>) -> (pq_serve::ServerHandle, Telemetry) {
    let plane = Telemetry::new();
    let server = Server::bind(
        ("127.0.0.1", 0),
        Sources {
            live: Some(ap),
            archive: None,
            rtt: Vec::new(),
        },
        ServeConfig::default(),
        &plane,
    )
    .unwrap();
    (server.spawn().unwrap(), plane)
}

/// The standing query each subscriber registers: a depth threshold that
/// always holds for this workload, top-5 culprits per 8-poll window.
fn query(n_checkpoints: u64) -> String {
    format!(
        "port {PORT} window tumbling {}ns where max(depth) >= 0 topk 5",
        (n_checkpoints / 8).max(1) * POLL_PERIOD
    )
}

/// Register `subs` standing queries concurrently; each waits for its
/// first fired window (`max_windows = 1` ends the stream there) and
/// reports the registration-to-result wall time.
fn measure_detection(addr: SocketAddr, subs: usize, q: &str) -> Vec<f64> {
    let threads: Vec<_> = (0..subs)
        .map(|_| {
            let q = q.to_string();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let t0 = Instant::now();
                let ack = client.standing(&q, 64, 1, false).unwrap();
                loop {
                    let r = client.next_stream_result(ack.sub).unwrap();
                    if r.to != 0 && r.fired {
                        break t0.elapsed().as_secs_f64() * 1e3;
                    }
                    assert!(!r.last, "stream ended without a fired window");
                }
            })
        })
        .collect();
    let mut out: Vec<f64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    out.sort_by(|a, b| a.partial_cmp(b).unwrap());
    out
}

struct Outcome {
    ok: usize,
    busy: usize,
    wall_ms: f64,
    latencies_ms: Vec<f64>,
    windows_seen: usize,
}

/// Run the live-query workload with `subs` long-lived standing
/// subscriptions attached. Subscribers drain their window backlog and
/// then sit on the stream until the shutdown drain delivers `last`.
fn run_scenario(
    ap: &Arc<AnalysisProgram>,
    clients: usize,
    per_client: usize,
    span: u64,
    subs: usize,
    q: &str,
) -> Outcome {
    let (handle, _plane) = spawn_server(Arc::clone(ap));
    let addr: SocketAddr = handle.addr();

    let sub_threads: Vec<_> = (0..subs)
        .map(|_| {
            let q = q.to_string();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let ack = client.standing(&q, 64, 0, false).unwrap();
                let mut windows = 0usize;
                while let Ok(r) = client.next_stream_result(ack.sub) {
                    if r.to != 0 {
                        windows += 1;
                    }
                    if r.last {
                        break;
                    }
                }
                windows
            })
        })
        .collect();
    // Give the evaluator one tick to absorb every subscription's
    // backlog before the measured region — unconditionally, so the
    // baseline gets the same grace period.
    std::thread::sleep(Duration::from_millis(50));

    let start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut ok = 0usize;
                let mut busy = 0usize;
                let mut latencies = Vec::with_capacity(per_client);
                for r in 0..per_client {
                    let from = (span * ((c + r) as u64 % 8)) / 8;
                    let to = from + 4 * POLL_PERIOD;
                    let t0 = Instant::now();
                    match client.query(Request::TimeWindows {
                        port: PORT,
                        from,
                        to,
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

    handle.shutdown().unwrap();
    let windows_seen = sub_threads.into_iter().map(|t| t.join().unwrap()).sum();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Outcome {
        ok,
        busy,
        wall_ms,
        latencies_ms,
        windows_seen,
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
        (2_048, 8, 1_000, 3)
    };
    let span = n_checkpoints * POLL_PERIOD;
    let q = query(n_checkpoints);
    eprintln!(
        "[ext_stream_latency] {n_checkpoints} checkpoints live, {clients} clients x \
         {per_client} queries, standing subscriptions 0/1/4/16"
    );
    let ap = build_live(n_checkpoints);

    // Detection latency at each fleet size, on a dedicated server so
    // the measurement sees only the evaluator tick plus wire time.
    let mut detect = Vec::new();
    for subs in [1usize, 4, 16] {
        let (handle, _plane) = spawn_server(Arc::clone(&ap));
        let samples = measure_detection(handle.addr(), subs, &q);
        handle.shutdown().unwrap();
        detect.push((subs, samples));
    }

    let scenarios = [0usize, 1, 4, 16];
    let mut best: Vec<Option<Outcome>> = scenarios.iter().map(|_| None).collect();
    let _ = run_scenario(&ap, clients, per_client, span, 0, &q);
    for _ in 0..trials {
        for (slot, &subs) in scenarios.iter().enumerate() {
            let out = run_scenario(&ap, clients, per_client, span, subs, &q);
            let better = best[slot]
                .as_ref()
                .is_none_or(|b| out.ok as f64 / out.wall_ms > b.ok as f64 / b.wall_ms);
            if better {
                best[slot] = Some(out);
            }
        }
    }

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "scenario",
        "subs",
        "ok",
        "busy",
        "qps",
        "p50 ms",
        "p99 ms",
        "detect p50 ms",
        "windows",
    ]);
    let mut qps_by_subs = Vec::new();
    for (slot, &subs) in scenarios.iter().enumerate() {
        let out = best[slot].take().unwrap();
        let qps = out.ok as f64 / (out.wall_ms / 1e3);
        let p50 = percentile(&out.latencies_ms, 0.50);
        let p99 = percentile(&out.latencies_ms, 0.99);
        let (d50, dmax) = detect
            .iter()
            .find(|(s, _)| *s == subs)
            .map(|(_, samples)| {
                (
                    percentile(samples, 0.50),
                    samples.last().copied().unwrap_or(0.0),
                )
            })
            .unwrap_or((0.0, 0.0));
        if subs > 0 {
            assert!(
                out.windows_seen >= subs,
                "every standing subscription must see its windows"
            );
        }
        table.row(vec![
            format!("subs_{subs}"),
            format!("{subs}"),
            format!("{}", out.ok),
            format!("{}", out.busy),
            format!("{qps:.0}"),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            format!("{d50:.2}"),
            format!("{}", out.windows_seen),
        ]);
        rows.push(Row {
            scenario: format!("subs_{subs}"),
            subscriptions: subs,
            clients,
            ok: out.ok,
            busy: out.busy,
            wall_ms: out.wall_ms,
            qps,
            p50_ms: p50,
            p99_ms: p99,
            detect_p50_ms: d50,
            detect_max_ms: dmax,
            windows_seen: out.windows_seen,
        });
        qps_by_subs.push((subs, qps));
    }

    let qps_0 = qps_by_subs[0].1;
    let overhead = |subs: usize| {
        let qps = qps_by_subs.iter().find(|(s, _)| *s == subs).unwrap().1;
        (qps_0 - qps) / qps_0
    };
    let detect_p50 = rows
        .iter()
        .find(|r| r.subscriptions == 1)
        .map(|r| r.detect_p50_ms)
        .unwrap_or(0.0);

    table.print("Extension — standing queries: detection latency and serve qps at 0/1/4/16 subs");
    println!(
        "detect p50 {detect_p50:.2} ms; qps {:.0} (0 subs) -> {:.0} (16 subs, {:+.2}%)",
        qps_0,
        qps_by_subs.last().unwrap().1,
        overhead(16) * 100.0
    );
    write_json_with_meta(
        "ext_stream_latency",
        &rows,
        false,
        vec![
            ("detect_p50_ms_1_sub".to_string(), Value::F64(detect_p50)),
            (
                "qps_overhead_frac_1_sub".to_string(),
                Value::F64(overhead(1)),
            ),
            (
                "qps_overhead_frac_4_subs".to_string(),
                Value::F64(overhead(4)),
            ),
            (
                "qps_overhead_frac_16_subs".to_string(),
                Value::F64(overhead(16)),
            ),
        ],
    );
}
