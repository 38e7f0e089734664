//! Extension experiment: cost of live metrics watching on serving.
//!
//! Re-runs the `ext_serve_throughput` cache-on workload — concurrent
//! clients issuing replay queries against a spilled archive — three
//! times, with 0, 1, and 4 watchers attached for the whole run. Each
//! watcher polls the daemon's metrics snapshot (`MetricsGet`, what
//! `pqsim watch` does) every 250 ms — four times the watch dashboard's
//! default 1 s cadence, to be conservative — while the query load runs;
//! the snapshots the daemon's reader threads cut and send are the
//! overhead being measured.
//!
//! Reported per scenario: achieved qps, p50/p99 request latency, and
//! how many polls/changed-series the watchers saw. The headline numbers
//! — fractional qps regression with 1 and with 4 watchers relative to
//! the 0-watcher baseline — are stamped into the `meta` block of
//! `results/ext_watch_overhead.json`.

use pq_bench::report::{write_json_with_meta, CommonArgs, Table};
use pq_bench::serving::{best_of_rounds, intervals, spill_polls, Fleet, Storm, MIN_PKT_TX_DELAY};
use pq_serve::{Client, Request, ServeConfig};
use pq_store::SegmentPolicy;
use pq_telemetry::delta;
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PORT: u16 = 0;
const POLL_INTERVAL_MS: u64 = 250;

#[derive(Serialize)]
struct Row {
    scenario: String,
    watchers: usize,
    clients: usize,
    requests: usize,
    ok: usize,
    busy: usize,
    wall_ms: f64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    polls_seen: usize,
    series_seen: usize,
}

/// Drive the query workload with `watchers` metrics pollers attached for
/// the whole run. Each watcher polls once before the storm, every
/// interval during it, and once after it, so it observes every phase of
/// the workload. Returns the storm and the polls and changed series the
/// watchers saw (every series of a watcher's first poll counts).
fn run_scenario(
    archive: &[u8],
    clients: usize,
    per_client: usize,
    mix: &[(u64, u64)],
    watchers: usize,
) -> (Storm, (usize, usize)) {
    let fleet = Fleet::archive(archive, &ServeConfig::default());
    let addr = fleet.addr(0);
    let done = Arc::new(AtomicBool::new(false));
    let watch_threads: Vec<_> = (0..watchers)
        .map(|_| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut prev = client.metrics_snapshot().unwrap().changed;
                let (mut polls, mut series) = (1usize, prev.len());
                loop {
                    let last = done.load(Ordering::SeqCst);
                    if !last {
                        std::thread::sleep(Duration::from_millis(POLL_INTERVAL_MS));
                    }
                    let snap = client.metrics_snapshot().unwrap().changed;
                    polls += 1;
                    series += delta::changed(&prev, &snap).len();
                    prev = snap;
                    if last {
                        return (polls, series);
                    }
                }
            })
        })
        .collect();
    // Let the worker pool and every watcher settle before the measured
    // region starts — unconditionally, so the 0-watcher baseline gets the
    // same grace period as the watched runs.
    std::thread::sleep(Duration::from_millis(50));

    let storm = Storm::run(addr, clients, per_client, |c, r| {
        let (from, to) = mix[(c + r) % mix.len()];
        Request::Replay {
            port: PORT,
            from,
            to,
            d: MIN_PKT_TX_DELAY,
        }
    });

    // Each watcher takes its final poll, then the daemon shuts down.
    done.store(true, Ordering::SeqCst);
    let seen = watch_threads
        .into_iter()
        .map(|t| t.join().unwrap())
        .fold((0, 0), |(u, s), (du, ds)| (u + du, s + ds));
    fleet.shutdown();
    (storm, seen)
}

fn main() {
    let args = CommonArgs::parse();
    let (n_checkpoints, clients, per_client, trials) = if args.quick {
        (512u64, 4usize, 100usize, 2usize)
    } else {
        (2_048, 8, 2_000, 3)
    };
    let mix = intervals(n_checkpoints, 8);
    eprintln!(
        "[ext_watch_overhead] spilling {n_checkpoints} checkpoints, \
         {clients} clients x {per_client} queries, watchers 0/1/4"
    );
    let (_, archive) = spill_polls(&[PORT], n_checkpoints, SegmentPolicy::default());

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "scenario", "watchers", "clients", "ok", "busy", "qps", "p50 ms", "p99 ms", "polls",
        "series",
    ]);
    let mut push = |watchers: usize, (out, (polls, series)): &(Storm, (usize, usize))| {
        let (qps, p50, p99) = (out.qps(), out.percentile(0.50), out.percentile(0.99));
        table.row(vec![
            format!("watch_{watchers}"),
            format!("{watchers}"),
            format!("{clients}"),
            format!("{}", out.ok),
            format!("{}", out.busy),
            format!("{qps:.0}"),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            format!("{polls}"),
            format!("{series}"),
        ]);
        rows.push(Row {
            scenario: format!("watch_{watchers}"),
            watchers,
            clients,
            requests: clients * per_client,
            ok: out.ok,
            busy: out.busy,
            wall_ms: out.wall_ms,
            qps,
            p50_ms: p50,
            p99_ms: p99,
            polls_seen: *polls,
            series_seen: *series,
        });
        qps
    };

    // Rounds interleave the three scenarios so progressive system
    // warming cannot bias any one of them.
    let watchers = [0, 1, 4];
    let best = best_of_rounds(watchers.len(), trials, |slot| {
        run_scenario(&archive, clients, per_client, &mix, watchers[slot])
    });
    let [qps_0, qps_1, qps_4] = [0, 1, 2].map(|slot| push(watchers[slot], &best[slot]));
    let polls = |slot: usize| best[slot].1 .0;
    assert!(
        polls(1) >= 2,
        "the watcher must poll at least before and after the storm"
    );
    assert!(polls(2) >= 8, "all four watchers must poll");

    // Fractional qps regression vs. the 0-watcher baseline. Negative
    // values mean the watched run measured faster (scheduling noise).
    let overhead = |qps: f64| (qps_0 - qps) / qps_0;
    let overhead_1 = overhead(qps_1);
    let overhead_4 = overhead(qps_4);

    table.print("Extension — watch overhead: serve qps with 0/1/4 polling watchers");
    println!(
        "qps {:.0} (0 watchers) -> {:.0} (1, {:+.2}%) -> {:.0} (4, {:+.2}%)",
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
            ("overhead_1_watcher".to_string(), Value::F64(overhead_1)),
            ("overhead_4_watchers".to_string(), Value::F64(overhead_4)),
            ("poll_interval_ms".to_string(), Value::U64(POLL_INTERVAL_MS)),
        ],
    );
}
