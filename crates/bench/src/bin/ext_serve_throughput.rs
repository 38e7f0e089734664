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
use pq_bench::serving::{intervals, metric, spill_polls, Fleet, Storm, MIN_PKT_TX_DELAY};
use pq_serve::{Request, ServeConfig};
use pq_store::SegmentPolicy;
use serde::{Serialize, Value};
use std::time::Duration;

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

/// Run `clients` threads of `per_client` replay queries each against a
/// fresh daemon, then read its cache hit-rate and shed counter from its
/// own metrics before shutting it down.
fn run_scenario(
    archive: &[u8],
    config: ServeConfig,
    clients: usize,
    per_client: usize,
    mix: &[(u64, u64)],
) -> (Storm, f64, f64) {
    let fleet = Fleet::archive(archive, &config);
    let storm = Storm::run(fleet.addr(0), clients, per_client, |c, r| {
        let (from, to) = mix[(c + r) % mix.len()];
        Request::Replay {
            port: PORT,
            from,
            to,
            d: MIN_PKT_TX_DELAY,
        }
    });
    let sample = |name: &str| metric(fleet.addr(0), name);
    let hits = sample("pq_serve_cache_hit_total");
    let misses = sample("pq_serve_cache_miss_total");
    let cache_hit_rate = hits / (hits + misses).max(1.0);
    let shed_total = sample("pq_serve_shed_total");
    fleet.shutdown();
    (storm, cache_hit_rate, shed_total)
}

fn main() {
    let args = CommonArgs::parse();
    let (n_checkpoints, clients, per_client) = if args.quick {
        (512u64, 4usize, 40usize)
    } else {
        (2_048, 8, 120)
    };
    let mix = intervals(n_checkpoints, 8);
    eprintln!(
        "[ext_serve_throughput] spilling {n_checkpoints} checkpoints, \
         {clients} clients x {per_client} queries"
    );
    let (_, archive) = spill_polls(&[PORT], n_checkpoints, SegmentPolicy::default());

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "scenario", "clients", "workers", "ok", "busy", "qps", "p50 ms", "p99 ms",
    ]);
    let mut push = |name: &str, workers: usize, n_clients: usize, out: &Storm| {
        let (qps, p50, p99) = (out.qps(), out.percentile(0.50), out.percentile(0.99));
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
            requests: n_clients * per_client,
            ok: out.ok,
            busy: out.busy,
            wall_ms: out.wall_ms,
            qps,
            p50_ms: p50,
            p99_ms: p99,
        });
    };

    let workers = ServeConfig::default().workers;
    let (cache_on, hit_rate_on, _) =
        run_scenario(&archive, ServeConfig::default(), clients, per_client, &mix);
    push("cache_on", workers, clients, &cache_on);

    let cache_off_config = ServeConfig {
        cache_bytes: 0,
        ..ServeConfig::default()
    };
    let (cache_off, hit_rate_off, _) =
        run_scenario(&archive, cache_off_config, clients, per_client, &mix);
    push("cache_off", workers, clients, &cache_off);

    let shed_clients = clients * 2;
    let shed_config = ServeConfig {
        workers: 1,
        queue_cap: 2,
        work_delay: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let (shedding, _, shed_total) =
        run_scenario(&archive, shed_config, shed_clients, per_client, &mix);
    push("shedding", 1, shed_clients, &shedding);

    let shed_attempts = (shed_clients * per_client) as f64;
    let shed_rate = shedding.busy as f64 / shed_attempts;
    assert!(
        shedding.busy > 0,
        "the overload scenario must shed at least once"
    );
    assert_eq!(
        shedding.busy as f64, shed_total,
        "every Busy answer must be counted by pq_serve_shed_total"
    );

    table.print("Extension — pq-serve throughput: cache on/off and shedding");
    println!(
        "cache hit-rate {:.1}% (on) vs {:.1}% (off); shed-rate {:.1}% under overload",
        hit_rate_on * 100.0,
        hit_rate_off * 100.0,
        shed_rate * 100.0
    );
    write_json_with_meta(
        "ext_serve_throughput",
        &rows,
        false,
        vec![
            ("cache_hit_rate".to_string(), Value::F64(hit_rate_on)),
            ("shed_rate".to_string(), Value::F64(shed_rate)),
        ],
    );
}
