//! Extension experiment: standing-query detection latency and overhead.
//!
//! Two measurements over a live analysis program served by pq-serve:
//!
//! 1. **Detection latency** — wall time from registering a standing
//!    depth-threshold query to receiving its first fired window, with
//!    1, 4, and 16 subscriptions registering concurrently. The daemon
//!    answers a standing query in one pass at registration, so the path
//!    is that pass (feed the checkpoint log, seal, close windows, run
//!    each fired window's flow query) plus wire time: the
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
use pq_bench::serving::POLL_PERIOD;
use pq_bench::serving::{best_of_rounds, drive_polls, intervals, percentile, Fleet, Storm};
use pq_core::control::AnalysisProgram;
use pq_serve::{Client, Request, ServeConfig};
use serde::{Serialize, Value};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Run the live-query workload with `subs` long-lived standing
/// subscriptions attached. Subscribers drain their window backlog and
/// then sit on the stream until the shutdown drain delivers `last`.
/// Returns the storm and the windows the subscribers saw.
fn run_scenario(
    ap: &Arc<AnalysisProgram>,
    clients: usize,
    per_client: usize,
    mix: &[(u64, u64)],
    subs: usize,
    q: &str,
) -> (Storm, usize) {
    let fleet = Fleet::live(&[Arc::clone(ap)], &ServeConfig::default());
    let addr = fleet.addr(0);

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
    // Let every subscriber register (and receive its registration-time
    // answer) before the measured region — unconditionally, so the
    // baseline gets the same grace period.
    std::thread::sleep(Duration::from_millis(50));

    let storm = Storm::run(addr, clients, per_client, |c, r| {
        let (from, to) = mix[(c + r) % mix.len()];
        Request::TimeWindows {
            port: PORT,
            from,
            to,
        }
    });

    fleet.shutdown();
    let windows_seen = sub_threads.into_iter().map(|t| t.join().unwrap()).sum();
    (storm, windows_seen)
}

fn main() {
    let args = CommonArgs::parse();
    let (n_checkpoints, clients, per_client, trials) = if args.quick {
        (512u64, 4usize, 100usize, 2usize)
    } else {
        (2_048, 8, 1_000, 3)
    };
    let mix = intervals(n_checkpoints, 8);
    let q = query(n_checkpoints);
    eprintln!(
        "[ext_stream_latency] {n_checkpoints} checkpoints live, {clients} clients x \
         {per_client} queries, standing subscriptions 0/1/4/16"
    );
    // Steady per-poll traffic with queue-monitor activity, so every
    // tumbling window holds flows and nonzero depths.
    let ap = Arc::new(drive_polls(&[PORT], n_checkpoints, None));

    // Detection latency at each fleet size, on a dedicated server so
    // the measurement sees only the registration pass plus wire time.
    let scenarios = [0usize, 1, 4, 16];
    let detect: Vec<Vec<f64>> = scenarios
        .iter()
        .map(|&subs| {
            let fleet = Fleet::live(&[Arc::clone(&ap)], &ServeConfig::default());
            let samples = measure_detection(fleet.addr(0), subs, &q);
            fleet.shutdown();
            samples
        })
        .collect();

    let best = best_of_rounds(scenarios.len(), trials, |slot| {
        run_scenario(&ap, clients, per_client, &mix, scenarios[slot], &q)
    });

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
    let mut qps = Vec::new();
    for ((&subs, (out, windows_seen)), samples) in scenarios.iter().zip(best).zip(detect) {
        let (out_qps, p50, p99) = (out.qps(), out.percentile(0.50), out.percentile(0.99));
        let d50 = percentile(&samples, 0.50);
        let dmax = samples.last().copied().unwrap_or(0.0);
        if subs > 0 {
            assert!(
                windows_seen >= subs,
                "every standing subscription must see its windows"
            );
        }
        table.row(vec![
            format!("subs_{subs}"),
            format!("{subs}"),
            format!("{}", out.ok),
            format!("{}", out.busy),
            format!("{out_qps:.0}"),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            format!("{d50:.2}"),
            format!("{windows_seen}"),
        ]);
        rows.push(Row {
            scenario: format!("subs_{subs}"),
            subscriptions: subs,
            clients,
            ok: out.ok,
            busy: out.busy,
            wall_ms: out.wall_ms,
            qps: out_qps,
            p50_ms: p50,
            p99_ms: p99,
            detect_p50_ms: d50,
            detect_max_ms: dmax,
            windows_seen,
        });
        qps.push(out_qps);
    }

    // Fractional qps regression of scenario `slot` vs no subscription.
    let overhead = |slot: usize| (qps[0] - qps[slot]) / qps[0];
    let detect_p50 = rows[1].detect_p50_ms;

    table.print("Extension — standing queries: detection latency and serve qps at 0/1/4/16 subs");
    println!(
        "detect p50 {detect_p50:.2} ms; qps {:.0} (0 subs) -> {:.0} (16 subs, {:+.2}%)",
        qps[0],
        qps[3],
        overhead(3) * 100.0
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
                Value::F64(overhead(2)),
            ),
            (
                "qps_overhead_frac_16_subs".to_string(),
                Value::F64(overhead(3)),
            ),
        ],
    );
}
