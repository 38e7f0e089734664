//! Extension experiment: pq-router scatter-gather scaling and failover.
//!
//! Spills a 32-port checkpoint archive, replicates it to every backend
//! with the seal-and-ship path, and drives a router-fronted fleet of
//! 1, 2, and 4 pq-serve daemons with concurrent clients issuing replay
//! queries across all ports. Backends carry an artificial 1 ms service
//! delay and a 2-thread worker pool, so per-backend CPU is the
//! bottleneck and aggregate qps must climb as backends are added —
//! the headline claim of the scale-out tier.
//!
//! A final chaos phase runs a 2-backend, replication-2 fleet, SIGKILLs
//! the primary owner of the measured port a quarter into a one-client
//! storm, with queries in flight, and reports the
//! failover window — the worst single-query latency while the router
//! rode through the kill — plus the router's own failover counter.
//! Both are stamped into the `meta` block of
//! `results/ext_router_scaling.json`.

use pq_bench::report::{write_json_with_meta, CommonArgs, Table};
use pq_bench::serving::{intervals, metric, spill_polls, Fleet, Storm, MIN_PKT_TX_DELAY};
use pq_router::{rendezvous_rank, RouterConfig};
use pq_serve::{Request, ServeConfig};
use pq_store::SegmentPolicy;
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const PORT_COUNT: u16 = 32;

#[derive(Serialize)]
struct Row {
    backends: usize,
    replication: u32,
    clients: usize,
    requests: usize,
    ok: usize,
    wall_ms: f64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// `n` backends over replicas of `archive`, behind a router with the
/// given replication factor.
fn routed(archive: &[u8], n: usize, replication: u32, config: &ServeConfig) -> Fleet {
    Fleet::replicas(archive, n, config).route(RouterConfig {
        replication,
        ..RouterConfig::default()
    })
}

fn main() {
    let args = CommonArgs::parse();
    let (polls, clients, per_client, chaos_queries) = if args.quick {
        (32u64, 8usize, 50usize, 600usize)
    } else {
        (64, 16, 200, 2_000)
    };
    let mix = intervals(polls, 8);
    let replay = |port: u16, i: usize| {
        let (from, to) = mix[i % mix.len()];
        Request::Replay {
            port,
            from,
            to,
            d: MIN_PKT_TX_DELAY,
        }
    };
    eprintln!(
        "[ext_router_scaling] spilling {PORT_COUNT} ports, then {clients} clients x \
         {per_client} queries against 1/2/4 backends"
    );
    let ports: Vec<u16> = (0..PORT_COUNT).collect();
    let policy = SegmentPolicy {
        checkpoints_per_segment: 16,
        ..SegmentPolicy::default()
    };
    let (_, archive) = spill_polls(&ports, polls, policy);

    // Per-backend capacity is pinned: 2 workers x 1 ms service delay.
    // Adding backends is the only way aggregate qps can rise.
    let slow = ServeConfig {
        workers: 2,
        work_delay: Duration::from_millis(1),
        queue_cap: 1_024,
        inflight_per_conn: 64,
        ..ServeConfig::default()
    };

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "backends",
        "replication",
        "clients",
        "ok",
        "qps",
        "p50 ms",
        "p99 ms",
    ]);
    let mut qps_by_n = Vec::new();
    for &n in &[1usize, 2, 4] {
        let replication = (n as u32).min(2);
        let fleet = routed(&archive, n, replication, &slow);
        // Every query must be answered: the router hides its fleet.
        let storm = Storm::run(fleet.router(), clients, per_client, |c, r| {
            replay(((c * 13 + r * 7) % PORT_COUNT as usize) as u16, c + r)
        });
        assert_eq!(storm.busy, 0, "a healthy fleet must not refuse a query");
        let failovers = metric(fleet.router(), "pq_router_failovers_total");
        assert_eq!(
            failovers, 0.0,
            "a healthy fleet must not fail over during the scaling storm"
        );
        fleet.shutdown();
        let (ok, qps) = (storm.ok, storm.qps());
        let (p50, p99) = (storm.percentile(0.50), storm.percentile(0.99));
        table.row(vec![
            format!("{n}"),
            format!("{replication}"),
            format!("{clients}"),
            format!("{ok}"),
            format!("{qps:.0}"),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
        ]);
        rows.push(Row {
            backends: n,
            replication,
            clients,
            requests: clients * per_client,
            ok,
            wall_ms: storm.wall_ms,
            qps,
            p50_ms: p50,
            p99_ms: p99,
        });
        qps_by_n.push((n, qps));
    }
    for pair in qps_by_n.windows(2) {
        assert!(
            pair[1].1 > pair[0].1,
            "aggregate qps must rise with backend count: {qps_by_n:?}"
        );
    }

    // Chaos phase: 2 backends, replication 2, kill the primary owner of
    // port 0 once a quarter of the storm is sent, while it runs on, so
    // the kill lands mid-query. The worst latency any query pays while
    // the router rides through it is the failover window.
    eprintln!("[ext_router_scaling] chaos phase: killing the primary owner mid-storm");
    let mut fleet = routed(&archive, 2, 2, &ServeConfig::default());
    let (addr, victim) = (fleet.router(), rendezvous_rank(fleet.specs(), 0, 0)[0]);
    let sent = AtomicUsize::new(0);
    let chaos = std::thread::scope(|scope| {
        let storm = scope.spawn(|| {
            Storm::run(addr, 1, chaos_queries, |_, i| {
                sent.store(i, Ordering::Relaxed);
                replay(0, i)
            })
        });
        while sent.load(Ordering::Relaxed) < chaos_queries / 4 && !storm.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        fleet.kill(victim);
        storm.join().unwrap()
    });
    assert_eq!(chaos.ok, chaos_queries, "no query may be lost to the kill");
    let failovers = metric(addr, "pq_router_failovers_total");
    assert!(
        failovers >= 1.0,
        "killing the primary owner must trigger at least one failover"
    );
    let failover_window_ms = chaos.latencies_ms.last().copied().unwrap_or(0.0);
    let steady_p50_ms = chaos.percentile(0.50);
    fleet.shutdown();

    table.print("Extension — pq-router scaling: aggregate qps vs backend count");
    println!(
        "chaos: {chaos_queries} queries, 0 lost; failover window {failover_window_ms:.1} ms \
         (steady p50 {steady_p50_ms:.3} ms), {failovers:.0} failover(s)"
    );
    write_json_with_meta(
        "ext_router_scaling",
        &rows,
        false,
        vec![
            (
                "chaos_queries".to_string(),
                Value::U64(chaos_queries as u64),
            ),
            ("chaos_lost".to_string(), Value::U64(0)),
            (
                "failover_window_ms".to_string(),
                Value::F64(failover_window_ms),
            ),
            ("chaos_steady_p50_ms".to_string(), Value::F64(steady_p50_ms)),
            ("failovers_total".to_string(), Value::F64(failovers)),
        ],
    );
}
