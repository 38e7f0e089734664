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
use pq_bench::serving::{best_of_rounds, intervals, spill_polls, Fleet, Storm, MIN_PKT_TX_DELAY};
use pq_serve::{Client, Request, ServeConfig};
use pq_store::SegmentPolicy;
use serde::{Serialize, Value};
use std::time::Duration;

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

/// Drive the query workload with `subscribers` live metrics streams
/// attached for the whole run. Subscribers fold updates until the
/// server's shutdown drain delivers the `last` frame, so they observe
/// every phase of the workload including teardown. Returns the storm and
/// the updates and changed series the subscribers saw.
fn run_scenario(
    archive: &[u8],
    clients: usize,
    per_client: usize,
    mix: &[(u64, u64)],
    subscribers: usize,
) -> (Storm, (usize, usize)) {
    let fleet = Fleet::archive(archive, &ServeConfig::default());
    let addr = fleet.addr(0);
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

    let storm = Storm::run(addr, clients, per_client, |c, r| {
        let (from, to) = mix[(c + r) % mix.len()];
        Request::Replay {
            port: PORT,
            from,
            to,
            d: MIN_PKT_TX_DELAY,
        }
    });

    // Shut down; the drain sends each subscriber its final update.
    fleet.shutdown();
    let seen = sub_threads
        .into_iter()
        .map(|t| t.join().unwrap())
        .fold((0, 0), |(u, s), (du, ds)| (u + du, s + ds));
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
         {clients} clients x {per_client} queries, subscribers 0/1/4"
    );
    let (_, archive) = spill_polls(&[PORT], n_checkpoints, SegmentPolicy::default());

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "scenario", "subs", "clients", "ok", "busy", "qps", "p50 ms", "p99 ms", "updates", "series",
    ]);
    let mut push = |subs: usize, (out, (updates, series)): &(Storm, (usize, usize))| {
        let (qps, p50, p99) = (out.qps(), out.percentile(0.50), out.percentile(0.99));
        table.row(vec![
            format!("subs_{subs}"),
            format!("{subs}"),
            format!("{clients}"),
            format!("{}", out.ok),
            format!("{}", out.busy),
            format!("{qps:.0}"),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            format!("{updates}"),
            format!("{series}"),
        ]);
        rows.push(Row {
            scenario: format!("subs_{subs}"),
            subscribers: subs,
            clients,
            requests: clients * per_client,
            ok: out.ok,
            busy: out.busy,
            wall_ms: out.wall_ms,
            qps,
            p50_ms: p50,
            p99_ms: p99,
            updates_seen: *updates,
            series_seen: *series,
        });
        qps
    };

    // Rounds interleave the three scenarios so progressive system
    // warming cannot bias any one of them.
    let subs = [0, 1, 4];
    let best = best_of_rounds(subs.len(), trials, |slot| {
        run_scenario(&archive, clients, per_client, &mix, subs[slot])
    });
    let [qps_0, qps_1, qps_4] = [0, 1, 2].map(|slot| push(subs[slot], &best[slot]));
    let updates = |slot: usize| best[slot].1 .0;
    assert!(
        updates(1) >= 2,
        "the subscriber must see at least the initial snapshot and the drain"
    );
    assert!(updates(2) >= 8, "all four subscribers must stream");

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
}
