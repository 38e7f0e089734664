//! End-to-end tests for distributed query tracing: a routed query's
//! stitched trace must account for (nearly) all of the client-observed
//! wall time, answers must be bit-identical with tracing on and off, a
//! v1 client must interoperate with a tracing server, slow queries must
//! enter the slow log even when untraced, latency histograms must carry
//! exemplars linking buckets back to trace ids, and a routed failover must
//! show up as a span naming the backend that took over. Spilled traces
//! read back (`pqsim trace --files`) exactly as they were committed.

use pq_bench::serving::{spill_program, tiny_segments, Fleet, PORTS};
use printqueue::router::{rendezvous_rank, RouterConfig};
use printqueue::serve::{Client, Request, ServeConfig};
use printqueue::telemetry::{
    self, names, new_trace_id, to_prometheus, trace_to_json, traces_to_chrome, MetricValue, Trace,
    TraceContext, TraceSink, TraceSpan, TraceStore,
};
use printqueue::tracefile::traces_from_jsonl;
use std::time::{Duration, Instant};

/// `n` backends over replicas of the two-port archive, tracing enabled
/// on each plane.
fn traced_fleet(n: usize, config: &ServeConfig) -> Fleet {
    let (_, bytes) = spill_program(2_000, tiny_segments());
    let fleet = Fleet::replicas(&bytes, n, config);
    for i in 0..n {
        fleet.plane(i).traces().set_enabled(true);
    }
    fleet
}

/// `fleet` behind a router with tracing enabled.
fn traced_router(fleet: Fleet) -> Fleet {
    let fleet = fleet.route(RouterConfig::default());
    fleet.router_plane().traces().set_enabled(true);
    fleet
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
    let config = ServeConfig {
        // The dominant cost is deliberate and attributable: a stitched
        // trace that misses it cannot hit the coverage bar.
        work_delay: Duration::from_millis(25),
        ..ServeConfig::default()
    };
    let fleet = traced_router(traced_fleet(2, &config));

    let tid = new_trace_id();
    let mut client = Client::connect(fleet.router()).unwrap();
    client.set_trace_context(Some(TraceContext::root(tid, true)));
    let started = Instant::now();
    let result = client.query(replay_req(PORTS[0])).unwrap();
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap();
    // The answer header echoes the caller's context untouched.
    assert_eq!(result.trace, Some(TraceContext::root(tid, true)));

    // Stitch the router's record with every backend's.
    let mut records = dump_for(fleet.router(), tid);
    for i in 0..2 {
        records.extend(dump_for(fleet.addr(i), tid));
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

    fleet.shutdown();
}

#[test]
fn failover_is_a_route_child_span_naming_the_backend_that_answered() {
    let mut fleet = traced_router(traced_fleet(2, &ServeConfig::default()));
    // Time is not sharded by default: every query is epoch 0.
    let ranked = rendezvous_rank(fleet.specs(), PORTS[0], 0);
    let survivor = fleet.specs()[ranked[1]].name.clone();
    let direct = Client::connect(fleet.addr(ranked[1]))
        .unwrap()
        .query(replay_req(PORTS[0]))
        .unwrap();
    fleet.stop(ranked[0]);

    let tid = new_trace_id();
    let mut client = Client::connect(fleet.router()).unwrap();
    client.set_trace_context(Some(TraceContext::root(tid, true)));
    let routed = client.query(replay_req(PORTS[0])).unwrap();
    assert_eq!(routed.estimates.counts, direct.estimates.counts);

    let records = dump_for(fleet.router(), tid);
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

    fleet.shutdown();
}

#[test]
fn answers_are_bit_identical_with_tracing_on_and_off() {
    let fleet = traced_router(traced_fleet(2, &ServeConfig::default()));

    let mut client = Client::connect(fleet.router()).unwrap();
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

    fleet.shutdown();
}

#[test]
fn slow_queries_enter_the_slow_log_untraced() {
    let config = ServeConfig {
        work_delay: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let fleet = traced_fleet(1, &config);
    // Head sampling off; only the slow threshold can commit a trace.
    fleet.plane(0).traces().set_slow_ns(1_000_000);

    let mut client = Client::connect(fleet.addr(0)).unwrap();
    client.query(replay_req(PORTS[0])).unwrap();

    let slow = client.trace_dump(32, true).unwrap();
    assert!(!slow.is_empty(), "slow log is empty after a 5ms query");
    for t in &slow {
        assert!(t.slow);
        assert!(t.duration_ns >= 1_000_000);
        assert!(t.spans.iter().any(|s| s.name == "worker_exec"));
    }

    fleet.shutdown();
}

#[test]
fn latency_histograms_carry_trace_exemplars() {
    let fleet = traced_fleet(1, &ServeConfig::default());

    let tid = new_trace_id();
    let mut client = Client::connect(fleet.addr(0)).unwrap();
    client.set_trace_context(Some(TraceContext::root(tid, true)));
    client.query(replay_req(PORTS[0])).unwrap();

    let snap = fleet.plane(0).snapshot();
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

    fleet.shutdown();
}

fn span(name: &str, start_ns: u64, end_ns: u64) -> TraceSpan {
    TraceSpan {
        span_id: 7,
        parent_span: 0,
        name: name.to_string(),
        process: "test".to_string(),
        tag: String::new(),
        start_ns,
        end_ns,
    }
}

fn trace(id: u128, duration: u64, slow: bool) -> Trace {
    Trace {
        trace_id: id,
        root_span: 7,
        duration_ns: duration,
        slow,
        spans: vec![span("route", 10, 10 + duration)],
    }
}

/// Run `pqsim trace --files PATH --json --quiet` over one spill file.
fn pqsim_trace_files(name: &str, text: &str) -> std::process::Output {
    let path = std::env::temp_dir().join(format!("pq-{name}-{}.jsonl", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pqsim"))
        .args([
            "trace",
            "--files",
            path.to_str().unwrap(),
            "--json",
            "--quiet",
        ])
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    out
}

#[test]
fn json_round_trips_exactly() {
    let t = Trace {
        trace_id: u128::MAX - 3,
        root_span: 0xdead_beef,
        duration_ns: 123_456_789,
        slow: true,
        spans: vec![
            TraceSpan {
                span_id: 1,
                parent_span: 0,
                name: "route".to_string(),
                process: "router".to_string(),
                tag: String::new(),
                start_ns: 5,
                end_ns: 50,
            },
            TraceSpan {
                span_id: 2,
                parent_span: 1,
                name: "worker \"exec\"\n".to_string(),
                process: "serve:a\\b".to_string(),
                tag: "cache=hit".to_string(),
                start_ns: 10,
                end_ns: 40,
            },
        ],
    };
    assert_eq!(traces_from_jsonl(&trace_to_json(&t)), vec![t]);
}

#[test]
fn corrupt_json_lines_are_skipped_not_fatal() {
    let good = trace_to_json(&trace(9, 10, false));
    let too_deep = "[".repeat(1_000_000);
    let wide_id = good.replacen("\"trace_id\":\"", "\"trace_id\":\"0", 1);
    let text = format!("\n{{\"truncated\": \n{good}\nnot json at all\n{too_deep}\n{wide_id}\n");
    let parsed = traces_from_jsonl(&text);
    assert_eq!(parsed.len(), 1);
    assert_eq!(parsed[0].trace_id, 9);
}

#[test]
fn sink_spills_commits_as_jsonl() {
    use std::io::Write;
    use std::sync::{Arc, Mutex};
    #[derive(Clone)]
    struct Buf(Arc<Mutex<Vec<u8>>>);
    impl Write for Buf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let buf = Buf(Arc::new(Mutex::new(Vec::new())));
    let store = TraceStore::default();
    store.set_sink(TraceSink::new(Box::new(buf.clone())));
    store.commit(trace(1, 5, false));
    store.commit(trace(2, 6, true));
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let parsed = traces_from_jsonl(&text);
    assert_eq!(parsed.len(), 2);
    assert_eq!(parsed[1].trace_id, 2);
    assert!(parsed[1].slow);
}

#[test]
fn spilled_epoch_nanoseconds_read_back_exactly() {
    // Above 2^53: a reader that goes through f64 returns ...768 here.
    let start = 1_760_000_000_123_456_789u64;
    let t = Trace {
        trace_id: 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
        root_span: u64::MAX,
        duration_ns: u64::MAX - 1,
        slow: false,
        spans: vec![span("serve_request", start, start + 1_001)],
    };
    let path = std::env::temp_dir().join(format!("pq-spill-exact-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    TraceSink::to_file(&path).unwrap().spill(&t);
    let spilled = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let out = pqsim_trace_files("trace-exact", &spilled);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout, spilled);
    assert_eq!(traces_from_jsonl(&stdout), vec![t]);
}

#[test]
fn trace_files_skip_a_line_nested_past_the_json_depth_limit() {
    let good = trace_to_json(&trace(11, 10, false));
    let out = pqsim_trace_files(
        "trace-deep",
        &format!("{}\n{good}\n", "[".repeat(1_000_000)),
    );
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), good + "\n");
}
