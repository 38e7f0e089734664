//! End-to-end tests for the pq-router tier: routed answers must be
//! bit-identical to a single-node oracle, killing any single backend
//! mid-storm must lose zero answers (replication 2), quarantined
//! backends must be readmitted by the health probe, and the shard
//! identity must travel the wire.

use pq_bench::serving::{metric, spill_program, sweep_intervals, tiny_segments, tw_small};
use pq_bench::serving::{Fleet, PORTS};
use printqueue::core::coefficient::Coefficients;
use printqueue::core::control::CoverageGap;
use printqueue::packet::FlowId;
use printqueue::router::{rendezvous_rank, BackendSpec, Router, RouterConfig};
use printqueue::serve::{Client, ClientError, Request, RetryPolicy, ServeConfig, Server, Sources};
use printqueue::store::StoreReader;
use printqueue::telemetry::Telemetry;
use std::collections::HashMap;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Oracle = HashMap<(u16, u64, u64), (HashMap<FlowId, f64>, Vec<CoverageGap>, bool, u64)>;

/// Precompute the single-node answers every routed answer must equal.
fn oracle_answers(bytes: &[u8]) -> Oracle {
    let mut local = StoreReader::open(Cursor::new(bytes.to_vec())).unwrap();
    let coeffs = Coefficients::compute(&tw_small(), 1);
    let mut out = HashMap::new();
    for &port in &PORTS {
        for interval in sweep_intervals() {
            let want = local.query(port, interval, &coeffs).unwrap();
            out.insert(
                (port, interval.from, interval.to),
                (
                    want.estimates.counts,
                    want.gaps,
                    want.degraded,
                    local.checkpoint_count(port),
                ),
            );
        }
    }
    out
}

#[test]
fn routed_replay_is_bit_identical_to_single_node_oracle() {
    let (_, bytes) = spill_program(2_000, tiny_segments());
    let fleet = Fleet::replicas(&bytes, 2, &ServeConfig::default()).route(RouterConfig::default());
    let oracle = oracle_answers(&bytes);

    let mut client = Client::connect(fleet.router()).unwrap();
    for &port in &PORTS {
        for interval in sweep_intervals() {
            let got = client
                .query(Request::Replay {
                    port,
                    from: interval.from,
                    to: interval.to,
                    d: 1,
                })
                .unwrap();
            let (counts, gaps, degraded, checkpoints) =
                &oracle[&(port, interval.from, interval.to)];
            // Raw f64 bits over the wire and single-partial passthrough
            // in the router: exact equality is the contract.
            assert_eq!(&got.estimates.counts, counts, "port {port} {interval:?}");
            assert_eq!(&got.gaps, gaps, "port {port} {interval:?}");
            assert_eq!(got.degraded, *degraded);
            assert_eq!(got.checkpoints, *checkpoints);
        }
    }

    // Authoritative errors are forwarded untouched — a port no backend
    // holds must come back exactly as a lone daemon would answer it.
    let direct_err = {
        let mut direct = Client::connect(fleet.addr(0)).unwrap();
        direct
            .query(Request::Replay {
                port: 9,
                from: 0,
                to: 10,
                d: 1,
            })
            .unwrap_err()
    };
    let routed_err = client
        .query(Request::Replay {
            port: 9,
            from: 0,
            to: 10,
            d: 1,
        })
        .unwrap_err();
    match (direct_err, routed_err) {
        (
            ClientError::Remote {
                code: c1,
                message: m1,
                gaps: g1,
            },
            ClientError::Remote {
                code: c2,
                message: m2,
                gaps: g2,
            },
        ) => {
            assert_eq!(c1, c2);
            assert_eq!(m1, m2);
            assert_eq!(g1, g2);
        }
        other => panic!("expected matching Remote errors, got {other:?}"),
    }

    fleet.shutdown();
}

#[test]
fn kill_a_node_mid_storm_loses_zero_answers() {
    let (_, bytes) = spill_program(2_000, tiny_segments());
    let mut config = ServeConfig {
        work_delay: Duration::from_millis(2),
        queue_cap: 256,
        inflight_per_conn: 64,
        ..ServeConfig::default()
    };
    config.drain_deadline = Duration::from_millis(200);
    let mut fleet = Fleet::replicas(&bytes, 3, &config).route(RouterConfig::default());
    let oracle = Arc::new(oracle_answers(&bytes));

    // Kill the primary owner of port 0's shard, so queries after the
    // kill are guaranteed to contact it first and fail over.
    let victim = rendezvous_rank(fleet.specs(), PORTS[0], 0)[0];

    const THREADS: usize = 8;
    const QUERIES: usize = 60;
    let addr = fleet.router();
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let oracle = Arc::clone(&oracle);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let intervals = sweep_intervals();
                for q in 0..QUERIES {
                    let port = PORTS[(w + q) % PORTS.len()];
                    let interval = intervals[(w * 7 + q) % intervals.len()];
                    let got = client
                        .query(Request::Replay {
                            port,
                            from: interval.from,
                            to: interval.to,
                            d: 1,
                        })
                        .unwrap_or_else(|e| panic!("worker {w} query {q} lost an answer: {e}"));
                    let (counts, gaps, degraded, checkpoints) =
                        &oracle[&(port, interval.from, interval.to)];
                    assert_eq!(&got.estimates.counts, counts, "worker {w} query {q}");
                    assert_eq!(&got.gaps, gaps, "worker {w} query {q}");
                    assert_eq!(got.degraded, *degraded);
                    assert_eq!(got.checkpoints, *checkpoints);
                }
            })
        })
        .collect();

    // SIGKILL analog mid-storm: no drain, sockets torn down, queued
    // work abandoned.
    std::thread::sleep(Duration::from_millis(50));
    fleet.kill(victim);

    for worker in workers {
        worker.join().unwrap();
    }

    assert!(
        metric(fleet.router(), "pq_router_failovers_total") >= 1.0,
        "the storm must have failed over at least once"
    );
    let mut client = Client::connect(fleet.router()).unwrap();
    let map = client.shard_map().unwrap();
    assert_eq!(map.backends.len(), 3);
    assert!(
        map.backends.iter().any(|b| !b.healthy),
        "the killed backend should be quarantined by now"
    );

    fleet.shutdown();
}

#[test]
fn quarantined_backend_is_readmitted_by_the_probe() {
    let (_, bytes) = spill_program(2_000, tiny_segments());
    let fleet = Fleet::replicas(&bytes, 1, &ServeConfig::default());

    // A second "backend" that does not exist yet: reserve an ephemeral
    // port (never connected to, so no TIME_WAIT) and hand its address
    // to the router before anything listens there.
    let reserved = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let phantom_addr = reserved.local_addr().unwrap();
    drop(reserved);
    let mut specs = fleet.specs().to_vec();
    specs.push(BackendSpec {
        name: "shard-late".to_string(),
        addr: phantom_addr.to_string(),
    });

    let config = RouterConfig {
        probe_interval: Duration::from_millis(20),
        ..RouterConfig::default()
    };
    let router = Router::bind(("127.0.0.1", 0), specs, config, &Telemetry::new())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(router.addr()).unwrap();

    // Enough queries that the phantom backend accumulates failures and
    // is quarantined (every shard has both backends as owners).
    for _ in 0..4 {
        for &port in &PORTS {
            client
                .query(Request::Replay {
                    port,
                    from: 0,
                    to: 1_999,
                    d: 1,
                })
                .unwrap();
        }
    }
    let map = client.shard_map().unwrap();
    let late = map
        .backends
        .iter()
        .find(|b| b.shard == "shard-late")
        .unwrap();
    assert!(!late.healthy, "phantom backend should be quarantined");
    let gen_quarantined = map.generation;
    assert!(metric(router.addr(), "pq_router_quarantines_total") >= 1.0);

    // Now the backend actually comes up on the promised address; the
    // probe loop must readmit it, serving shard-0's replica.
    let late_server = Server::bind(
        phantom_addr,
        Sources {
            archive: Some(fleet.replica(0)),
            ..Sources::default()
        },
        ServeConfig {
            shard: "shard-late".to_string(),
            ..ServeConfig::default()
        },
        &Telemetry::new(),
    )
    .unwrap()
    .spawn()
    .unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let map = client.shard_map().unwrap();
        let late = map
            .backends
            .iter()
            .find(|b| b.shard == "shard-late")
            .unwrap();
        if late.healthy {
            assert!(
                map.generation > gen_quarantined,
                "readmission must bump the map generation"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "probe loop never readmitted the recovered backend"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(metric(router.addr(), "pq_router_readmissions_total") >= 1.0);

    // And it serves again: answers still match the oracle.
    let oracle = oracle_answers(&bytes);
    for &port in &PORTS {
        let got = client
            .query(Request::Replay {
                port,
                from: 0,
                to: 1_999,
                d: 1,
            })
            .unwrap();
        let (counts, ..) = &oracle[&(port, 0, 1_999)];
        assert_eq!(&got.estimates.counts, counts);
    }

    router.shutdown().unwrap();
    late_server.shutdown().unwrap();
    fleet.shutdown();
}

#[test]
fn client_retry_honors_busy_and_recovers() {
    // A server that refuses connections beyond the first: connect_retry
    // must keep retrying the accept-time Busy until the slot frees.
    let (_, bytes) = spill_program(500, tiny_segments());
    let config = ServeConfig {
        max_conns: 1,
        retry_after_ms: 10,
        ..ServeConfig::default()
    };
    let fleet = Fleet::replicas(&bytes, 1, &config);
    let addr = fleet.addr(0);

    let hog = Client::connect(addr).unwrap();
    // Plain connect is shed with Busy while the slot is held.
    match Client::connect(addr) {
        Err(ClientError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 10),
        Err(other) => panic!("expected Busy at the connection cap, got {other}"),
        Ok(_) => panic!("expected Busy at the connection cap, got a connection"),
    }
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        drop(hog);
    });
    let policy = RetryPolicy {
        max_retries: 50,
        base_ms: 20,
        cap_ms: 50,
        seed: 7,
    };
    let mut client = Client::connect_retry(addr, &policy)
        .expect("bounded retry should win once the hog disconnects");
    release.join().unwrap();
    client
        .query(Request::Replay {
            port: 0,
            from: 0,
            to: 499,
            d: 1,
        })
        .unwrap();
    fleet.shutdown();
}

#[test]
fn shard_identity_travels_health_and_shard_map() {
    let (_, bytes) = spill_program(500, tiny_segments());
    let fleet = Fleet::replicas(&bytes, 2, &ServeConfig::default());

    // Each lone daemon advertises its shard in HealthAck and answers a
    // one-entry self-describing ShardMap.
    for (i, spec) in fleet.specs().iter().enumerate() {
        let mut direct = Client::connect(spec.addr.as_str()).unwrap();
        let health = direct.health().unwrap();
        assert_eq!(health.shard, format!("shard-{i}"));
        let map = direct.shard_map().unwrap();
        assert_eq!(map.replication, 1);
        assert_eq!(map.backends.len(), 1);
        assert_eq!(map.backends[0].shard, format!("shard-{i}"));
        assert!(map.backends[0].healthy);
    }

    // The router's map covers the fleet and its health names itself.
    let fleet = fleet.route(RouterConfig::default());
    let mut client = Client::connect(fleet.router()).unwrap();
    let health = client.health().unwrap();
    assert_eq!(health.shard, "router");
    assert_eq!(health.workers, 2, "workers field carries the backend count");
    let map = client.shard_map().unwrap();
    assert_eq!(map.replication, 2);
    assert_eq!(map.backends.len(), 2);
    assert!(map.backends.iter().all(|b| b.healthy));

    fleet.shutdown();
}
