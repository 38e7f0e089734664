//! End-to-end tests for the continuous profiler: a routed `pqsim prof`
//! dump must be byte-identical to the client-side merge of the
//! per-backend dumps, the hot serving scopes must show up with real
//! self-time, and the named-lock histograms must be queryable off the
//! daemon's Prometheus exposition.
//!
//! The profiler is process-global, so every test serializes on
//! `pq_prof`'s test lock and keeps the stack sampler off — with idle
//! worker threads and no sampler, nothing mutates the profile between
//! the three dump fetches a byte-identity comparison needs.

use pq_bench::serving::{spill_program, tiny_segments, Fleet, PORTS};
use printqueue::prof;
use printqueue::router::RouterConfig;
use printqueue::serve::{Client, Request, ServeConfig};
use printqueue::telemetry::{parse_prometheus, Telemetry};

/// `n` always-profiled backends over replicas of the two-port archive
/// driven for `until` ns. Spilling it here also exercises the
/// instrumented freeze gate and store-writer locks, so the dumps and
/// expositions below have real lock data to show.
///
/// Profiling is switched on as `pqsim serve --prof` does it: scope
/// timing on for the process, `pq_prof_*` / `pq_lock_*` series exported
/// by each daemon's plane. The stack sampler stays off: dump stability
/// is the point.
fn profiled_fleet(until: u64, n: usize) -> Fleet {
    let (_, bytes) = spill_program(until, tiny_segments());
    prof::set_enabled(true);
    let config = ServeConfig {
        cache_bytes: 0, // every replay decodes, so segment_decode records
        ..ServeConfig::default()
    };
    let fleet = Fleet::replicas(&bytes, n, &config);
    for i in 0..n {
        fleet.plane(i).set_export_prof(true);
    }
    fleet
}

#[test]
fn routed_dump_is_byte_identical_to_merged_backend_dumps() {
    let _guard = prof::test_lock();
    prof::reset();
    let fleet = profiled_fleet(2_000, 2).route(RouterConfig::default());

    // Drive load through the router so the serving scopes record.
    let mut client = Client::connect(fleet.router()).unwrap();
    for round in 0..5u64 {
        for &port in &PORTS {
            client
                .query(Request::Replay {
                    port,
                    from: round * 300,
                    to: round * 300 + 600,
                    d: 1,
                })
                .unwrap();
        }
    }

    // Workers are idle now and the sampler never ran, so the process
    // profile is frozen across these three fetches.
    let mut dumps = Vec::new();
    for i in 0..2 {
        let mut c = Client::connect(fleet.addr(i)).unwrap();
        dumps.push(c.profile_dump_bytes().unwrap());
    }
    let routed = client.profile_dump_bytes().unwrap();

    let mut merged = prof::ProfileReport::default();
    for d in &dumps {
        merged.merge(&prof::ProfileReport::decode(d).unwrap());
    }
    assert_eq!(
        routed,
        merged.encode(),
        "routed dump must be the canonical encoding of the per-backend merge"
    );

    // The hot serving scopes are present with real time behind them.
    let report = prof::ProfileReport::decode(&routed).unwrap();
    for want in ["serve/worker_exec", "store/segment_decode"] {
        let scope = report
            .scopes
            .iter()
            .find(|s| s.name == want)
            .unwrap_or_else(|| panic!("scope {want} missing from routed dump"));
        assert!(scope.calls > 0, "{want} recorded no calls");
        assert!(scope.self_ns() > 0, "{want} recorded no self time");
    }
    // The named locks the archive build exercised travel in the dump.
    for want in ["freeze", "store_writer"] {
        let lock = report
            .locks
            .iter()
            .find(|l| l.name == want)
            .unwrap_or_else(|| panic!("lock {want} missing from routed dump"));
        assert!(lock.acquisitions > 0, "{want} recorded no acquisitions");
        assert!(lock.wait.is_consistent(), "{want} wait histogram corrupt");
        assert!(lock.hold.is_consistent(), "{want} hold histogram corrupt");
    }

    drop(client);
    fleet.shutdown();
    prof::set_enabled(false);
    prof::reset();
}

#[test]
fn prof_series_ride_the_prometheus_exposition() {
    let _guard = prof::test_lock();
    prof::reset();
    let fleet = profiled_fleet(1_000, 1);

    let mut client = Client::connect(fleet.addr(0)).unwrap();
    client
        .query(Request::Replay {
            port: 0,
            from: 0,
            to: 900,
            d: 1,
        })
        .unwrap();
    let text = client.metrics().unwrap();
    let metrics = parse_prometheus(&text).unwrap();
    let has = |name: &str, label: Option<(&str, &str)>| {
        metrics.iter().any(|m| {
            m.name == name
                && label.is_none_or(|(k, v)| m.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
    };
    // The lock-wait histograms the freeze-and-read path and the store
    // writer publish, queryable per named lock (histogram samples keep
    // their `_bucket`/`_sum`/`_count` suffixes in the exposition).
    assert!(
        has("pq_lock_wait_ns_count", Some(("lock", "freeze"))),
        "freeze lock wait histogram missing:\n{text}"
    );
    assert!(
        has("pq_lock_wait_ns_count", Some(("lock", "store_writer"))),
        "store_writer lock wait histogram missing:\n{text}"
    );
    assert!(
        has("pq_lock_hold_ns_count", Some(("lock", "freeze"))),
        "freeze lock hold histogram missing"
    );
    assert!(
        has("pq_lock_acquisitions_total", Some(("lock", "freeze"))),
        "freeze lock acquisition counter missing"
    );
    // Scope self-time counters, labeled by scope.
    assert!(
        has(
            "pq_prof_scope_self_ns_total",
            Some(("scope", "serve/worker_exec"))
        ),
        "worker_exec self-time series missing:\n{text}"
    );

    drop(client);
    fleet.shutdown();
    prof::set_enabled(false);
    prof::reset();
}

/// `pqsim prof` (the `ProfileReport`) and `pqsim telemetry` (the
/// `pq_lock_*_ns` series a plane with `set_export_prof` exports) read the
/// same lock histograms, so they must print the same quantiles. They
/// did not while pq-prof interpolated `rank / n` and pq-telemetry
/// `(rank - 1) / (n - 1)`: these ten samples gave p25 95 vs 101 and p90
/// 1 706 vs 1 791.
#[test]
fn profile_and_telemetry_agree_on_lock_quantiles() {
    let _guard = prof::test_lock();
    prof::reset();
    const LOCK: &str = "quantile_agreement";
    for v in [64, 70, 80, 100, 127, 1_000, 1_100, 1_500, 1_900, 2_000] {
        prof::lock::record_acquisition(LOCK, v, v);
    }
    let plane = Telemetry::new();
    plane.set_export_prof(true);
    let snap = plane.snapshot();
    let report = prof::ProfileReport::capture();
    let lock = report.locks.iter().find(|l| l.name == LOCK).unwrap();
    let series = [
        ("pq_lock_wait_ns", &lock.wait),
        ("pq_lock_hold_ns", &lock.hold),
    ];
    for (name, hist) in series {
        let exported = snap.histogram(name, &[("lock", LOCK)]).unwrap();
        for q in [0.25, 0.5, 0.9, 0.99] {
            assert_eq!(hist.quantile(q), exported.quantile(q), "{name} q={q}");
        }
        // What the two commands print: p99 in the table, p50 and p99 in
        // the JSON document.
        let (p50, p99) = (exported.p50(), exported.p99());
        let kind = &name["pq_lock_".len()..name.len() - "_ns".len()];
        let table = report.render(0);
        assert!(
            table.contains(&format!("{kind} p99 {:.2}us", p99 as f64 / 1e3)),
            "{kind} p99 {p99} not in {table}"
        );
        let json = report.to_json();
        assert!(
            json.contains(&format!("\"{kind}_p50_ns\":{p50},\"{kind}_p99_ns\":{p99}")),
            "{kind} p50 {p50} / p99 {p99} not in {json}"
        );
    }
    prof::reset();
}
