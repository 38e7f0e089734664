//! End-to-end tests for the pq-serve daemon: remote answers must be
//! bit-identical to in-process queries, degraded-query semantics must
//! survive the network hop, overload must shed with explicit Busy frames,
//! and shutdown must drain admitted work.

use pq_bench::serving::{drive_program, spill_program, sweep_intervals, tiny_segments, tw_small};
use pq_bench::serving::{metric, Fleet, PORTS};
use printqueue::core::coefficient::Coefficients;
use printqueue::core::snapshot::QueryInterval;
use printqueue::packet::FlowId;
use printqueue::serve::wire::{self, Frame};
use printqueue::serve::{Client, ClientError, HealthInfo, Request, ServeConfig};
use printqueue::store::StoreReader;
use printqueue::telemetry::parse_prometheus;
use std::io::{Cursor, Read};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[test]
fn remote_replay_matches_local_bit_for_bit() {
    let (_ap, bytes) = spill_program(2_000, tiny_segments());
    let fleet = Fleet::replicas(&bytes, 1, &ServeConfig::default());
    let mut client = Client::connect(fleet.addr(0)).unwrap();
    let mut local = StoreReader::open(Cursor::new(bytes)).unwrap();
    let coeffs = Coefficients::compute(&tw_small(), 1);
    for &port in &PORTS {
        for interval in sweep_intervals() {
            let want = local.query(port, interval, &coeffs).unwrap();
            let got = client
                .query(Request::Replay {
                    port,
                    from: interval.from,
                    to: interval.to,
                    d: 1,
                })
                .unwrap();
            // Flow values travel as raw f64 bits: exact equality, not
            // approximate, is the contract.
            assert_eq!(
                want.estimates.counts, got.estimates.counts,
                "port {port} interval {interval:?}"
            );
            assert_eq!(want.gaps, got.gaps, "port {port} interval {interval:?}");
            assert_eq!(want.degraded, got.degraded);
            assert_eq!(got.checkpoints, local.checkpoint_count(port));
        }
    }
    // The sweep re-queried the same segments: the shared decode cache
    // must have observed both misses (first pass) and hits (later ones).
    assert!(metric(fleet.addr(0), "pq_serve_cache_miss_total") >= 1.0);
    assert!(
        metric(fleet.addr(0), "pq_serve_cache_hit_total") >= 1.0,
        "repeated intervals should hit the decode cache"
    );
    fleet.shutdown();
}

#[test]
fn remote_live_queries_match_in_process() {
    let ap = Arc::new(drive_program(None, 2_000, 0));
    let fleet = Fleet::live(&[Arc::clone(&ap)], &ServeConfig::default());
    let mut client = Client::connect(fleet.addr(0)).unwrap();
    for &port in &PORTS {
        for interval in sweep_intervals() {
            let want = ap.query_time_windows(port, interval);
            let got = client
                .query(Request::TimeWindows {
                    port,
                    from: interval.from,
                    to: interval.to,
                })
                .unwrap();
            assert_eq!(want.estimates.counts, got.estimates.counts);
            assert_eq!(want.gaps, got.gaps);
            assert_eq!(want.degraded, got.degraded);
            assert_eq!(got.checkpoints, ap.checkpoints(port).len() as u64);
        }
        // Queue monitor: counts arrive ranked (count desc, then flow id).
        let at = 500;
        let want = ap.query_queue_monitor(port, at).unwrap();
        let mut want_counts: Vec<(FlowId, u64)> = want.culprit_counts().into_iter().collect();
        want_counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let got = client.queue_monitor(port, at).unwrap();
        assert_eq!(got.frozen_at, want.frozen_at);
        assert_eq!(got.staleness, want.staleness);
        assert_eq!(got.degraded, want.degraded);
        assert_eq!(got.gaps, want.gaps);
        assert_eq!(got.counts, want_counts);
    }
    fleet.shutdown();
}

#[test]
fn corrupt_segment_stays_degraded_over_the_wire() {
    let (_ap, bytes) = spill_program(2_000, tiny_segments());
    let clean = StoreReader::open(Cursor::new(bytes.clone())).unwrap();
    let victims: Vec<_> = clean
        .segments()
        .iter()
        .filter(|s| s.port == 0)
        .copied()
        .collect();
    let victim = victims[victims.len() / 2];
    let mut corrupted = bytes.clone();
    corrupted[(victim.offset + victim.len - 8) as usize] ^= 0x01;

    let fleet = Fleet::archive(&corrupted, &ServeConfig::default());
    let mut client = Client::connect(fleet.addr(0)).unwrap();
    let mut local = StoreReader::open(Cursor::new(corrupted)).unwrap();
    let coeffs = Coefficients::compute(&tw_small(), 1);
    let over = QueryInterval::new(victim.min_t, victim.max_t);
    let want = local.query(0, over, &coeffs).unwrap();
    assert!(want.degraded);
    let got = client
        .query(Request::Replay {
            port: 0,
            from: over.from,
            to: over.to,
            d: 1,
        })
        .unwrap();
    assert!(got.degraded, "corruption must stay visible remotely");
    assert_eq!(want.gaps, got.gaps);
    assert_eq!(want.estimates.counts, got.estimates.counts);
    fleet.shutdown();
}

#[test]
fn remote_errors_carry_typed_codes_and_gaps() {
    let ap = Arc::new(drive_program(None, 500, 0));
    let fleet = Fleet::live(&[ap], &ServeConfig::default());
    let mut client = Client::connect(fleet.addr(0)).unwrap();
    // Unknown port.
    match client.query(Request::TimeWindows {
        port: 99,
        from: 0,
        to: 100,
    }) {
        Err(ClientError::Remote { code, .. }) => {
            assert_eq!(code, printqueue::serve::ErrorCode::UnknownPort)
        }
        other => panic!("expected UnknownPort, got {other:?}"),
    }
    // No archive attached.
    match client.query(Request::Replay {
        port: 0,
        from: 0,
        to: 100,
        d: 1,
    }) {
        Err(ClientError::Remote { code, .. }) => {
            assert_eq!(code, printqueue::serve::ErrorCode::NoArchive)
        }
        other => panic!("expected NoArchive, got {other:?}"),
    }
    fleet.shutdown();
}

#[test]
fn overload_sheds_with_busy_never_silently() {
    let ap = Arc::new(drive_program(None, 500, 0));
    let config = ServeConfig {
        workers: 1,
        queue_cap: 1,
        retry_after_ms: 7,
        work_delay: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let fleet = Fleet::live(&[ap], &config);
    let addr = fleet.addr(0);
    let n = 6;
    let barrier = Arc::new(Barrier::new(n));
    let threads: Vec<_> = (0..n)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                client.query(Request::TimeWindows {
                    port: 0,
                    from: 0,
                    to: 400,
                })
            })
        })
        .collect();
    let mut ok = 0u32;
    let mut busy = 0u32;
    for t in threads {
        match t.join().unwrap() {
            Ok(_) => ok += 1,
            Err(ClientError::Busy { retry_after_ms }) => {
                assert_eq!(retry_after_ms, 7, "Busy must carry the configured backoff");
                busy += 1;
            }
            Err(other) => panic!("unexpected failure under load: {other}"),
        }
    }
    assert_eq!(ok + busy, n as u32, "every request answered — none dropped");
    assert!(
        ok >= 1,
        "the server must still make progress under overload"
    );
    assert!(busy >= 1, "with queue_cap=1 and slow work, some must shed");
    // The shed counter must account for every Busy sent.
    assert!(metric(addr, "pq_serve_shed_total") >= f64::from(busy));
    fleet.shutdown();
}

#[test]
fn per_connection_inflight_cap_sheds_pipelined_requests() {
    let ap = Arc::new(drive_program(None, 500, 0));
    let config = ServeConfig {
        workers: 1,
        inflight_per_conn: 2,
        queue_cap: 64,
        work_delay: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let fleet = Fleet::live(&[ap], &config);
    // Raw pipelining (the Client API is strictly request-response).
    let mut stream = TcpStream::connect(fleet.addr(0)).unwrap();
    stream.set_nodelay(true).unwrap();
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            version: wire::PROTOCOL_VERSION,
            max_frame: wire::MAX_FRAME_LEN,
        },
    )
    .unwrap();
    let ack = wire::read_frame(&mut stream, wire::MAX_FRAME_LEN).unwrap();
    assert!(matches!(ack, Frame::HelloAck { .. }));
    let total = 8u64;
    for id in 1..=total {
        wire::write_frame(
            &mut stream,
            &Frame::Request {
                id,
                req: Request::TimeWindows {
                    port: 0,
                    from: 0,
                    to: 400,
                },
                trace: None,
            },
        )
        .unwrap();
    }
    // Read until every request is accounted for: each id ends in either
    // ResultEnd (admitted and answered) or Busy (shed at the cap).
    let mut answered = 0u64;
    let mut shed = 0u64;
    while answered + shed < total {
        match wire::read_frame(&mut stream, wire::MAX_FRAME_LEN).unwrap() {
            Frame::ResultEnd { .. } => answered += 1,
            Frame::Busy { .. } => shed += 1,
            Frame::ResultHeader { .. } | Frame::ResultFlows { .. } | Frame::ResultGaps { .. } => {}
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert!(shed >= 1, "pipelining past inflight_per_conn=2 must shed");
    assert!(answered >= 2, "admitted requests must still complete");
    fleet.shutdown();
}

#[test]
fn shutdown_drains_admitted_requests() {
    let ap = Arc::new(drive_program(None, 500, 0));
    let config = ServeConfig {
        workers: 1,
        work_delay: Duration::from_millis(60),
        drain_deadline: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let fleet = Fleet::live(&[ap], &config);
    // Pipeline three queries, then ask a second connection for shutdown
    // while they are still queued. Nagle would hold the small pipelined
    // writes in the kernel past the shutdown, so disable it.
    let mut stream = TcpStream::connect(fleet.addr(0)).unwrap();
    stream.set_nodelay(true).unwrap();
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            version: wire::PROTOCOL_VERSION,
            max_frame: wire::MAX_FRAME_LEN,
        },
    )
    .unwrap();
    let _ack = wire::read_frame(&mut stream, wire::MAX_FRAME_LEN).unwrap();
    for id in 1..=3u64 {
        wire::write_frame(
            &mut stream,
            &Frame::Request {
                id,
                req: Request::TimeWindows {
                    port: 0,
                    from: 0,
                    to: 400,
                },
                trace: None,
            },
        )
        .unwrap();
    }
    // Give the connection's reader thread time to admit all three (the
    // single worker is still sleeping through job 1's work_delay), then
    // initiate shutdown while jobs 2 and 3 sit in the queue.
    std::thread::sleep(Duration::from_millis(40));
    let mut stopper = Client::connect(fleet.addr(0)).unwrap();
    stopper.shutdown_server().unwrap();
    // All three admitted queries must still be answered in full.
    let mut seen: Vec<String> = Vec::new();
    let mut ends = 0;
    while ends < 3 {
        match wire::read_frame(&mut stream, wire::MAX_FRAME_LEN) {
            Ok(Frame::ResultEnd { id }) => {
                seen.push(format!("End({id})"));
                ends += 1;
            }
            Ok(Frame::ResultHeader { id, .. }) => seen.push(format!("Hdr({id})")),
            Ok(Frame::ResultFlows { id, .. }) => seen.push(format!("Flows({id})")),
            Ok(Frame::ResultGaps { id, .. }) => seen.push(format!("Gaps({id})")),
            Ok(other) => panic!("unexpected frame during drain: {other:?} after {seen:?}"),
            Err(e) => panic!("read failed: {e:?} after {seen:?}"),
        }
    }
    fleet.shutdown();
}

#[test]
fn health_answers_inline_and_reflects_config() {
    let ap = Arc::new(drive_program(None, 500, 0));
    let config = ServeConfig {
        workers: 3,
        queue_cap: 17,
        max_conns: 9,
        ..ServeConfig::default()
    };
    let fleet = Fleet::live(&[ap], &config);
    printqueue::telemetry::provenance::set_build_info(
        fleet.plane(0).registry(),
        "9.9.9",
        "cafe1234",
    );
    let mut client = Client::connect(fleet.addr(0)).unwrap();
    let health = client.health().unwrap();
    assert_eq!(health.workers, 3);
    assert_eq!(health.queue_cap, 17);
    assert_eq!(health.max_conns, 9);
    assert_eq!(health.active_conns, 1);
    assert!(!health.draining);
    assert_eq!(health.version, "9.9.9");
    assert_eq!(health.commit, "cafe1234");
    // Health requests are themselves observable, and uptime is stamped.
    let snap = fleet.plane(0).snapshot();
    assert_eq!(
        snap.counter(
            printqueue::telemetry::names::SERVE_REQUESTS,
            &[("kind", "health")]
        ),
        Some(1)
    );
    assert!(snap
        .gauge(printqueue::telemetry::names::SERVE_UPTIME, &[])
        .is_some());
    fleet.shutdown();
}

#[test]
fn metrics_get_matches_prometheus_exposition() {
    let ap = Arc::new(drive_program(None, 2_000, 0));
    let fleet = Fleet::live(&[ap], &ServeConfig::default());
    let mut client = Client::connect(fleet.addr(0)).unwrap();
    for _ in 0..5 {
        client
            .query(Request::TimeWindows {
                port: 0,
                from: 0,
                to: 1_999,
            })
            .unwrap();
    }
    // The text exposition and the structured snapshot must agree on every
    // stable counter (nothing else is running, so only the metrics
    // requests themselves move between the two reads).
    let text = client.metrics().unwrap();
    let parsed = parse_prometheus(&text).unwrap();
    let update = client.metrics_snapshot().unwrap();
    assert_eq!(update.seq, 0);
    assert!(update.last);
    let tw = update
        .changed
        .counter(
            printqueue::telemetry::names::SERVE_REQUESTS,
            &[("kind", "time_windows")],
        )
        .unwrap();
    assert_eq!(tw, 5);
    let prom_tw = parsed
        .iter()
        .find(|m| {
            m.name == printqueue::telemetry::names::SERVE_REQUESTS
                && m.labels
                    .iter()
                    .any(|(k, v)| k == "kind" && v == "time_windows")
        })
        .map(|m| m.value)
        .unwrap();
    assert_eq!(prom_tw, tw as f64);
    fleet.shutdown();
}

/// A watcher polls `MetricsGet`: each poll is the whole registry, so the
/// last poll after the work settles equals the server's own state, and
/// the series that moved between two polls are exactly the ones
/// `delta::changed` names.
#[test]
fn polled_snapshots_equal_server_state() {
    let ap = Arc::new(drive_program(None, 2_000, 0));
    let fleet = Fleet::live(&[ap], &ServeConfig::default());
    let mut client = Client::connect(fleet.addr(0)).unwrap();
    let first = client.metrics_snapshot().unwrap();
    assert_eq!((first.seq, first.last), (0, true));
    // A full snapshot: core serve series present.
    assert!(first
        .changed
        .counter(printqueue::telemetry::names::SERVE_SHED, &[])
        .is_some());

    // Work a second connection between the polls.
    let mut worker = Client::connect(fleet.addr(0)).unwrap();
    for _ in 0..3 {
        worker
            .query(Request::TimeWindows {
                port: 0,
                from: 0,
                to: 1_999,
            })
            .unwrap();
    }
    let second = client.metrics_snapshot().unwrap();
    assert!(second.t_ns >= first.t_ns);
    let tw = |snap: &printqueue::telemetry::RegistrySnapshot| {
        snap.counter(
            printqueue::telemetry::names::SERVE_REQUESTS,
            &[("kind", "time_windows")],
        )
    };
    // All three queries were answered before the poll, so the polled
    // view matches the server's own count exactly.
    assert_eq!(tw(&second.changed), Some(3));
    assert_eq!(tw(&fleet.plane(0).snapshot()), Some(3));
    let moved = printqueue::telemetry::delta::changed(&first.changed, &second.changed);
    assert_eq!(tw(&moved), Some(3));
    for (key, value) in second.changed.iter() {
        assert!(moved.get(key) == Some(value) || first.changed.get(key) == Some(value));
    }
    fleet.shutdown();
}

/// A metrics read is answered on the connection's reader thread: with
/// the only worker busy and the admission queue full, where a queued
/// request would be shed, a poll is answered.
#[test]
fn metrics_reads_are_never_queued_or_shed() {
    let ap = Arc::new(drive_program(None, 500, 0));
    let config = ServeConfig {
        workers: 1,
        queue_cap: 1,
        work_delay: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let fleet = Fleet::live(&[ap], &config);
    let addr = fleet.addr(0);
    let mut client = Client::connect(addr).unwrap();
    // One query executing, then one queued: the pool is saturated.
    let mut saturate = |until: fn(&HealthInfo) -> bool| {
        let query = std::thread::spawn(move || {
            Client::connect(addr).unwrap().query(Request::TimeWindows {
                port: 0,
                from: 0,
                to: 400,
            })
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !until(&client.health().unwrap()) {
            assert!(Instant::now() < deadline, "the query was never admitted");
            std::thread::sleep(Duration::from_millis(2));
        }
        query
    };
    let queries = [
        saturate(|h| h.busy_workers == 1),
        saturate(|h| h.queue_depth == 1),
    ];
    let update = client.metrics_snapshot().unwrap();
    let snap = &update.changed;
    let names = (
        printqueue::telemetry::names::SERVE_QUEUE_DEPTH,
        printqueue::telemetry::names::SERVE_SHED,
    );
    assert_eq!(snap.gauge(names.0, &[]), Some(1), "cut with the queue full");
    assert_eq!(snap.counter(names.1, &[]), Some(0));
    for query in queries {
        query.join().unwrap().unwrap();
    }
    fleet.shutdown();
}

#[test]
fn connection_cap_refuses_with_busy_at_accept() {
    let ap = Arc::new(drive_program(None, 500, 0));
    let config = ServeConfig {
        max_conns: 0,
        retry_after_ms: 11,
        ..ServeConfig::default()
    };
    let fleet = Fleet::live(&[ap], &config);
    match Client::connect(fleet.addr(0)) {
        Err(ClientError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 11),
        Err(other) => panic!("expected Busy at accept, got {other}"),
        Ok(_) => panic!("expected Busy at accept, got a connection"),
    }
    fleet.shutdown();
}

/// `--cache-mb` counts MiB. A count whose bytes overflow `u64` is refused
/// with exit 2 before anything is served. 2^44 MiB is 2^64 bytes: shifted
/// into a `u64`, it wraps to a 0-byte cache (off, without a word), and
/// 2^44 + 64 MiB to 64 MiB.
#[test]
fn serve_refuses_a_cache_size_whose_bytes_overflow() {
    let (_, bytes) = spill_program(500, tiny_segments());
    let archive = std::env::temp_dir().join(format!("pq_cache_mb_{}.pqa", std::process::id()));
    std::fs::write(&archive, bytes).unwrap();
    for mib in ["17592186044416", "17592186044480"] {
        let mut daemon = Command::new(env!("CARGO_BIN_EXE_pqsim"))
            .args(["serve", "--archive", archive.to_str().unwrap()])
            .args(["--cache-mb", mib, "--quiet"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = daemon.try_wait().unwrap() {
                break status;
            }
            if Instant::now() > deadline {
                daemon.kill().unwrap();
                daemon.wait().unwrap();
                panic!("--cache-mb {mib} started a daemon");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut err = String::new();
        daemon
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut err)
            .unwrap();
        assert_eq!(status.code(), Some(2), "--cache-mb {mib}: {err}");
        assert!(err.contains("--cache-mb"), "{err}");
    }
    std::fs::remove_file(archive).unwrap();
}
