//! End-to-end tests for distributed query tracing: a routed query's
//! stitched trace must account for (nearly) all of the client-observed
//! wall time, answers must be bit-identical with tracing on and off, a
//! v1 client must interoperate with a tracing server, slow queries must
//! enter the slow log even when untraced, latency histograms must carry
//! exemplars linking buckets back to trace ids, and a routed failover must
//! show up as a span naming the backend that took over.

use printqueue::core::control::{AnalysisProgram, ControlConfig};
use printqueue::core::params::TimeWindowConfig;
use printqueue::packet::FlowId;
use printqueue::router::{rendezvous_rank, BackendSpec, Router, RouterConfig, RouterHandle};
use printqueue::serve::{Client, Request, ServeConfig, Server, ServerHandle, Sources};
use printqueue::store::{ship_archive, SegmentPolicy, SharedStoreWriter, StoreWriter};
use printqueue::telemetry::{
    self, names, new_trace_id, to_prometheus, traces_to_chrome, MetricValue, Telemetry, Trace,
    TraceContext,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const PORTS: [u16; 2] = [0, 3];

fn tw_small() -> TimeWindowConfig {
    TimeWindowConfig::new(0, 1, 6, 2)
}

fn build_archive(until: u64) -> Vec<u8> {
    let tw = tw_small();
    let writer = StoreWriter::new(
        Vec::new(),
        tw,
        SegmentPolicy {
            checkpoints_per_segment: 4,
            max_segment_bytes: 1 << 20,
            retain_segments_per_port: None,
        },
    )
    .unwrap();
    let handle = SharedStoreWriter::new(writer);
    let mut ap = AnalysisProgram::new(
        tw,
        ControlConfig {
            poll_period: 64,
            max_snapshots: 10_000,
        },
        &PORTS,
        32,
        1,
        1,
    );
    ap.set_spill(Box::new(handle.clone()));
    for t in 0..until {
        for (i, &port) in PORTS.iter().enumerate() {
            if t % (i as u64 + 2) == 0 {
                ap.record_dequeue(port, FlowId((t % 7) as u32 + i as u32 * 100), t);
            }
        }
        if t % 64 == 0 {
            ap.on_tick(t);
        }
    }
    for &port in &PORTS {
        handle.with(|w| w.set_health(port, ap.health())).unwrap();
    }
    handle.finish().unwrap()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pq_trace_e2e_{}_{name}.pqa", std::process::id()))
}

/// Spawn `n` backends over replicas of `bytes` with tracing enabled on
/// each plane, returning the planes so tests can inspect them directly.
fn spawn_traced_fleet(
    bytes: &[u8],
    n: usize,
    tag: &str,
    config: &ServeConfig,
) -> (
    Vec<ServerHandle>,
    Vec<BackendSpec>,
    Vec<Telemetry>,
    Vec<PathBuf>,
) {
    let src = temp_path(&format!("{tag}_src"));
    std::fs::write(&src, bytes).unwrap();
    let mut handles = Vec::new();
    let mut specs = Vec::new();
    let mut planes = Vec::new();
    let mut paths = vec![src.clone()];
    for i in 0..n {
        let replica = temp_path(&format!("{tag}_replica{i}"));
        ship_archive(&src, &replica).unwrap();
        let mut cfg = config.clone();
        cfg.shard = format!("shard-{i}");
        let plane = Telemetry::new();
        plane.traces().set_enabled(true);
        let server = Server::bind(
            ("127.0.0.1", 0),
            Sources {
                live: None,
                archive: Some(replica.clone()),
                rtt: Vec::new(),
            },
            cfg,
            &plane,
        )
        .unwrap();
        let handle = server.spawn().unwrap();
        specs.push(BackendSpec {
            name: format!("shard-{i}"),
            addr: handle.addr().to_string(),
        });
        handles.push(handle);
        planes.push(plane);
        paths.push(replica);
    }
    (handles, specs, planes, paths)
}

fn spawn_traced_router(specs: Vec<BackendSpec>) -> (RouterHandle, Telemetry) {
    let plane = Telemetry::new();
    plane.traces().set_enabled(true);
    let router = Router::bind(("127.0.0.1", 0), specs, RouterConfig::default(), &plane).unwrap();
    (router.spawn().unwrap(), plane)
}

fn cleanup(paths: &[PathBuf]) {
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

/// Total nanoseconds covered by the union of `[start, end]` intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = 0u64;
    for (start, end) in intervals {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
        }
        cursor = cursor.max(end);
    }
    covered
}

fn dump_for(addr: std::net::SocketAddr, tid: u128) -> Vec<Trace> {
    let mut client = Client::connect(addr).unwrap();
    client
        .trace_dump(32, false)
        .unwrap()
        .into_iter()
        .filter(|t| t.trace_id == tid)
        .collect()
}

fn replay_req(port: u16) -> Request {
    Request::Replay {
        port,
        from: 0,
        to: 1_999,
        d: 1,
    }
}

#[test]
fn routed_trace_accounts_for_client_wall_time() {
    let bytes = build_archive(2_000);
    let config = ServeConfig {
        // The dominant cost is deliberate and attributable: a stitched
        // trace that misses it cannot hit the coverage bar.
        work_delay: Duration::from_millis(25),
        ..ServeConfig::default()
    };
    let (backends, specs, _planes, paths) = spawn_traced_fleet(&bytes, 2, "wall", &config);
    let (router, _rplane) = spawn_traced_router(specs);

    let tid = new_trace_id();
    let mut client = Client::connect(router.addr()).unwrap();
    client.set_trace_context(Some(TraceContext::root(tid, true)));
    let started = Instant::now();
    let result = client.query(replay_req(PORTS[0])).unwrap();
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap();
    // The answer header echoes the caller's context untouched.
    assert_eq!(result.trace, Some(TraceContext::root(tid, true)));

    // Stitch the router's record with every backend's.
    let mut records = dump_for(router.addr(), tid);
    for b in &backends {
        records.extend(dump_for(b.addr(), tid));
    }
    assert!(
        records.len() >= 2,
        "expected router + backend records, got {}",
        records.len()
    );
    let names_seen: Vec<&str> = records
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| s.name.as_str()))
        .collect();
    for required in [
        "route",
        "merge",
        "serve_request",
        "worker_exec",
        "segment_decode",
    ] {
        assert!(
            names_seen.contains(&required),
            "span {required} missing from stitched trace: {names_seen:?}"
        );
    }

    // The union of every recorded span interval must account for >= 95%
    // of what the client measured around the call.
    let intervals: Vec<(u64, u64)> = records
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| (s.start_ns, s.end_ns)))
        .collect();
    let covered = union_ns(intervals);
    assert!(
        covered as f64 >= 0.95 * wall_ns as f64,
        "stitched trace covers {covered} ns of {wall_ns} ns ({:.1}%)",
        100.0 * covered as f64 / wall_ns as f64
    );

    // And the stitched records export as one Chrome timeline: span
    // labels (tags ride inside the name), per-process rows, and the
    // trace id in the args for alert → trace linkage.
    let chrome = traces_to_chrome(&records);
    assert!(chrome.contains("route") && chrome.contains("worker_exec"));
    assert!(chrome.contains(&format!("{tid:032x}")));
    assert!(chrome.contains("\"name\": \"router\""));

    router.shutdown().unwrap();
    for b in backends {
        b.shutdown().unwrap();
    }
    cleanup(&paths);
}

#[test]
fn failover_is_a_route_child_span_naming_the_backend_that_answered() {
    let bytes = build_archive(2_000);
    let (mut backends, specs, _planes, paths) =
        spawn_traced_fleet(&bytes, 2, "failover", &ServeConfig::default());
    // Time is not sharded by default: every query is epoch 0.
    let ranked = rendezvous_rank(&specs, PORTS[0], 0);
    let survivor = specs[ranked[1]].name.clone();
    let (router, _rplane) = spawn_traced_router(specs);
    let direct = Client::connect(backends[ranked[1]].addr())
        .unwrap()
        .query(replay_req(PORTS[0]))
        .unwrap();
    backends.remove(ranked[0]).shutdown().unwrap();

    let tid = new_trace_id();
    let mut client = Client::connect(router.addr()).unwrap();
    client.set_trace_context(Some(TraceContext::root(tid, true)));
    let routed = client.query(replay_req(PORTS[0])).unwrap();
    assert_eq!(routed.estimates.counts, direct.estimates.counts);

    let records = dump_for(router.addr(), tid);
    let spans: Vec<_> = records.iter().flat_map(|t| &t.spans).collect();
    let route = spans.iter().find(|s| s.name == names::SPAN_ROUTE).unwrap();
    let failovers: Vec<_> = spans
        .iter()
        .filter(|s| s.name == names::SPAN_FAILOVER)
        .collect();
    assert_eq!(failovers.len(), 1, "{spans:?}");
    let failover = failovers[0];
    assert_eq!(failover.tag, survivor);
    assert_eq!(failover.parent_span, route.span_id);
    assert!(route.start_ns <= failover.start_ns && failover.end_ns <= route.end_ns);

    router.shutdown().unwrap();
    for b in backends {
        b.shutdown().unwrap();
    }
    cleanup(&paths);
}

#[test]
fn answers_are_bit_identical_with_tracing_on_and_off() {
    let bytes = build_archive(2_000);
    let (backends, specs, _planes, paths) =
        spawn_traced_fleet(&bytes, 2, "ident", &ServeConfig::default());
    let (router, _rplane) = spawn_traced_router(specs);

    let mut client = Client::connect(router.addr()).unwrap();
    for &port in &PORTS {
        let bare = client.query(replay_req(port)).unwrap();
        assert_eq!(bare.trace, None, "untraced answers must not grow an echo");
        client.set_trace_context(Some(TraceContext::root(new_trace_id(), true)));
        let traced = client.query(replay_req(port)).unwrap();
        client.set_trace_context(None);
        // Raw f64 bits all the way through: exact equality, not within-eps.
        assert_eq!(bare.estimates.counts, traced.estimates.counts);
        assert_eq!(bare.gaps, traced.gaps);
        assert_eq!(bare.degraded, traced.degraded);
        assert_eq!(bare.checkpoints, traced.checkpoints);
        assert!(traced.trace.is_some());
    }

    router.shutdown().unwrap();
    for b in backends {
        b.shutdown().unwrap();
    }
    cleanup(&paths);
}

#[test]
fn slow_queries_enter_the_slow_log_untraced() {
    let bytes = build_archive(2_000);
    let config = ServeConfig {
        work_delay: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let (backends, _specs, planes, paths) = spawn_traced_fleet(&bytes, 1, "slow", &config);
    // Head sampling off; only the slow threshold can commit a trace.
    planes[0].traces().set_slow_ns(1_000_000);

    let mut client = Client::connect(backends[0].addr()).unwrap();
    client.query(replay_req(PORTS[0])).unwrap();

    let slow = client.trace_dump(32, true).unwrap();
    assert!(!slow.is_empty(), "slow log is empty after a 5ms query");
    for t in &slow {
        assert!(t.slow);
        assert!(t.duration_ns >= 1_000_000);
        assert!(t.spans.iter().any(|s| s.name == "worker_exec"));
    }

    for b in backends {
        b.shutdown().unwrap();
    }
    cleanup(&paths);
}

#[test]
fn latency_histograms_carry_trace_exemplars() {
    let bytes = build_archive(2_000);
    let (backends, _specs, planes, paths) =
        spawn_traced_fleet(&bytes, 1, "exemplar", &ServeConfig::default());

    let tid = new_trace_id();
    let mut client = Client::connect(backends[0].addr()).unwrap();
    client.set_trace_context(Some(TraceContext::root(tid, true)));
    client.query(replay_req(PORTS[0])).unwrap();

    let snap = planes[0].snapshot();
    let worst = snap
        .iter()
        .find_map(|(k, v)| match v {
            MetricValue::Histogram(h) if k.name == names::SERVE_REQUEST_NS => h.worst_exemplar(),
            _ => None,
        })
        .expect("request latency histogram has no exemplar after a sampled query");
    assert_eq!(worst.trace_id, tid);

    // The exemplar survives into the Prometheus exposition, OpenMetrics
    // style, so an alert consumer can link a bucket to the trace.
    let prom = to_prometheus(&snap);
    assert!(
        prom.contains(&format!("{tid:032x}")),
        "exposition lost the exemplar trace id"
    );

    // And the spans-dropped counters ride every exposition.
    assert!(prom.contains(telemetry::names::TRACE_SPANS_DROPPED));

    for b in backends {
        b.shutdown().unwrap();
    }
    cleanup(&paths);
}
