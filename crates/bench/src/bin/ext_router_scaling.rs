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
//! the primary owner of the measured port mid-storm, and reports the
//! failover window — the worst single-query latency while the router
//! rode through the kill — plus the router's own failover counter.
//! Both are stamped into the `meta` block of
//! `results/ext_router_scaling.json`.

use pq_bench::report::{write_json_with_meta, CommonArgs, Table};
use pq_core::control::{AnalysisProgram, ControlConfig};
use pq_core::params::TimeWindowConfig;
use pq_packet::FlowId;
use pq_router::{rendezvous_rank, BackendSpec, Router, RouterConfig, RouterHandle};
use pq_serve::{Client, Request, ServeConfig, Server, ServerHandle, Sources};
use pq_store::{ship_archive, SegmentPolicy, SharedStoreWriter, StoreWriter};
use pq_telemetry::{parse_prometheus, Telemetry};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const PORT_COUNT: u16 = 32;
const POLL_PERIOD: u64 = 64;

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

fn tw() -> TimeWindowConfig {
    TimeWindowConfig::new(0, 1, 6, 2)
}

fn ports() -> Vec<u16> {
    (0..PORT_COUNT).collect()
}

/// Spill synthetic traffic on all 32 ports into a `.pqa` file.
fn build_archive(until: u64, path: &PathBuf) {
    let writer = StoreWriter::new(
        Vec::new(),
        tw(),
        SegmentPolicy {
            checkpoints_per_segment: 16,
            max_segment_bytes: 1 << 20,
            retain_segments_per_port: None,
        },
    )
    .unwrap();
    let handle = SharedStoreWriter::new(writer);
    let all = ports();
    let mut ap = AnalysisProgram::new(
        tw(),
        ControlConfig {
            poll_period: POLL_PERIOD,
            max_snapshots: 100_000,
        },
        &all,
        32,
        1,
        1,
    );
    ap.set_spill(Box::new(handle.clone()));
    for t in 0..until {
        for (i, &port) in all.iter().enumerate() {
            if t % (i as u64 % 4 + 2) == 0 {
                ap.record_dequeue(port, FlowId((t % 13) as u32 + i as u32 * 100), t);
            }
        }
        if t % POLL_PERIOD == 0 {
            ap.on_tick(t);
        }
    }
    for &port in &all {
        handle.with(|w| w.set_health(port, ap.health())).unwrap();
    }
    std::fs::write(path, handle.finish().unwrap()).unwrap();
}

/// The rotating query mix: `k` intervals tiling the archive's span.
fn intervals(until: u64, k: u64) -> Vec<(u64, u64)> {
    (0..k)
        .map(|i| {
            let from = (until * i) / k;
            (from, from + until / k)
        })
        .collect()
}

struct Fleet {
    backends: Vec<ServerHandle>,
    specs: Vec<BackendSpec>,
    router: RouterHandle,
    replicas: Vec<PathBuf>,
}

/// Replicate the source archive to `n` backends, start them, and put a
/// router in front with the given replication factor.
fn spawn_fleet(src: &Path, n: usize, replication: u32, config: &ServeConfig, tag: &str) -> Fleet {
    let mut backends = Vec::new();
    let mut specs = Vec::new();
    let mut replicas = Vec::new();
    for i in 0..n {
        let replica = std::env::temp_dir().join(format!(
            "pq_ext_router_{}_{tag}_{i}.pqa",
            std::process::id()
        ));
        ship_archive(src, &replica).unwrap();
        let mut cfg = config.clone();
        cfg.shard = format!("shard-{i}");
        let server = Server::bind(
            ("127.0.0.1", 0),
            Sources {
                live: None,
                archive: Some(replica.clone()),
                rtt: Vec::new(),
            },
            cfg,
            &Telemetry::new(),
        )
        .unwrap();
        let handle = server.spawn().unwrap();
        specs.push(BackendSpec {
            name: format!("shard-{i}"),
            addr: handle.addr().to_string(),
        });
        backends.push(handle);
        replicas.push(replica);
    }
    let router = Router::bind(
        ("127.0.0.1", 0),
        specs.clone(),
        RouterConfig {
            replication,
            ..RouterConfig::default()
        },
        &Telemetry::new(),
    )
    .unwrap()
    .spawn()
    .unwrap();
    Fleet {
        backends,
        specs,
        router,
        replicas,
    }
}

impl Fleet {
    fn teardown(self) {
        self.router.shutdown().unwrap();
        for b in self.backends {
            b.shutdown().unwrap();
        }
        for r in &self.replicas {
            let _ = std::fs::remove_file(r);
        }
    }
}

/// Drive `clients` threads of `per_client` replay queries through the
/// router; every query must succeed (the router hides its fleet).
fn storm(
    addr: std::net::SocketAddr,
    clients: usize,
    per_client: usize,
    mix: &[(u64, u64)],
) -> (usize, f64, Vec<f64>) {
    let start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let mix = mix.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut latencies = Vec::with_capacity(per_client);
                for r in 0..per_client {
                    let port = ((c * 13 + r * 7) % PORT_COUNT as usize) as u16;
                    let (from, to) = mix[(c + r) % mix.len()];
                    let t0 = Instant::now();
                    client
                        .query(Request::Replay {
                            port,
                            from,
                            to,
                            d: 1,
                        })
                        .unwrap_or_else(|e| panic!("routed query lost: {e}"));
                    latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                latencies
            })
        })
        .collect();
    let mut latencies_ms = Vec::new();
    for t in threads {
        latencies_ms.extend(t.join().unwrap());
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let ok = latencies_ms.len();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (ok, wall_ms, latencies_ms)
}

fn router_metric(addr: std::net::SocketAddr, name: &str) -> f64 {
    let mut probe = Client::connect(addr).unwrap();
    parse_prometheus(&probe.metrics().unwrap())
        .unwrap()
        .iter()
        .filter(|m| m.name == name)
        .map(|m| m.value)
        .sum()
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
    let (until, clients, per_client, chaos_queries) = if args.quick {
        (4_096u64, 8usize, 50usize, 600usize)
    } else {
        (8_192, 16, 200, 2_000)
    };
    let mix = intervals(until, 8);
    let src = std::env::temp_dir().join(format!("pq_ext_router_src_{}.pqa", std::process::id()));
    eprintln!(
        "[ext_router_scaling] spilling {PORT_COUNT} ports, then {clients} clients x \
         {per_client} queries against 1/2/4 backends"
    );
    build_archive(until, &src);

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
        let fleet = spawn_fleet(&src, n, replication, &slow, &format!("scale{n}"));
        let (ok, wall_ms, latencies) = storm(fleet.router.addr(), clients, per_client, &mix);
        let failovers = router_metric(fleet.router.addr(), "pq_router_failovers_total");
        assert_eq!(
            failovers, 0.0,
            "a healthy fleet must not fail over during the scaling storm"
        );
        fleet.teardown();
        let qps = ok as f64 / (wall_ms / 1e3);
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);
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
            wall_ms,
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
    // port 0 mid-storm. The worst latency any query pays while the
    // router rides through the kill is the failover window.
    eprintln!("[ext_router_scaling] chaos phase: killing the primary owner mid-storm");
    let mut fleet = spawn_fleet(&src, 2, 2, &ServeConfig::default(), "chaos");
    let victim = rendezvous_rank(&fleet.specs, 0, 0)[0];
    let addr = fleet.router.addr();
    let killer = {
        let handle = fleet.backends.remove(victim);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            handle.kill().unwrap();
        })
    };
    let mix0 = intervals(until, 8);
    let chaos = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mut latencies = Vec::with_capacity(chaos_queries);
        let started = Instant::now();
        let mut r = 0usize;
        // At least chaos_queries queries AND at least 150 ms of storm,
        // so the 50 ms kill always lands mid-storm even when queries
        // are fast.
        while r < chaos_queries || started.elapsed() < Duration::from_millis(150) {
            let (from, to) = mix0[r % mix0.len()];
            let t0 = Instant::now();
            client
                .query(Request::Replay {
                    port: 0,
                    from,
                    to,
                    d: 1,
                })
                .unwrap_or_else(|e| panic!("query {r} lost during failover: {e}"));
            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            r += 1;
        }
        latencies
    });
    killer.join().unwrap();
    let mut chaos_latencies = chaos.join().unwrap();
    let chaos_done = chaos_latencies.len();
    let failovers = router_metric(addr, "pq_router_failovers_total");
    assert!(
        failovers >= 1.0,
        "killing the primary owner must trigger at least one failover"
    );
    chaos_latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let failover_window_ms = chaos_latencies.last().copied().unwrap_or(0.0);
    let steady_p50_ms = percentile(&chaos_latencies, 0.50);
    fleet.teardown();
    let _ = std::fs::remove_file(&src);

    table.print("Extension — pq-router scaling: aggregate qps vs backend count");
    println!(
        "chaos: {chaos_done} queries, 0 lost; failover window {failover_window_ms:.1} ms \
         (steady p50 {steady_p50_ms:.3} ms), {failovers:.0} failover(s)"
    );
    write_json_with_meta(
        "ext_router_scaling",
        &rows,
        false,
        vec![
            ("chaos_queries".to_string(), Value::U64(chaos_done as u64)),
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
