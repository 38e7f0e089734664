//! The connection front and the client exchange, from outside: a daemon
//! and a router must be indistinguishable up to a client's first query
//! (same handshake, same answers to the shared requests, same refusals),
//! and the client must judge `Busy`, `Error` and response ids the same
//! way whichever method is waiting.

use pq_bench::serving::Fleet;
use printqueue::router::{BackendSpec, Router, RouterConfig};
use printqueue::serve::wire::{self, ErrorCode, Frame, HealthInfo, Request, WireSample, WireValue};
use printqueue::serve::{Client, ClientError, ServeConfig, Sources};
use printqueue::telemetry::{names, AlertEngine, AlertRule, Op, Stat, Telemetry};
use serde::Value;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// A source-less daemon and a router in front of it, both capped at
/// `max_conns` client connections.
fn pair(max_conns: usize) -> Fleet {
    let serve = ServeConfig {
        max_conns,
        ..ServeConfig::default()
    };
    let config = RouterConfig {
        max_conns,
        probe_interval: Duration::from_millis(400),
        ..RouterConfig::default()
    };
    Fleet::new(vec![Sources::default()], &serve).route(config)
}

fn send(stream: &mut TcpStream, frame: &Frame) {
    wire::write_frame(stream, frame).unwrap();
}

fn recv(stream: &mut TcpStream) -> Option<Frame> {
    wire::read_frame(stream, wire::MAX_FRAME_LEN).ok()
}

fn hello(addr: SocketAddr, version: u16) -> (TcpStream, Option<Frame>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    send(
        &mut stream,
        &Frame::Hello {
            version,
            max_frame: wire::MAX_FRAME_LEN,
        },
    );
    let reply = recv(&mut stream);
    (stream, reply)
}

/// What a front does, as a transcript comparable across fronts: the
/// handshake replies in full, the frame kinds answering each shared
/// request, and every refusal in full followed by the close.
fn transcript(addr: SocketAddr) -> Vec<String> {
    let mut lines = Vec::new();
    for version in [0, 1, 2, 3, 9] {
        let (mut stream, reply) = hello(addr, version);
        let then = (version == 0).then(|| format!(" then {:?}", recv(&mut stream)));
        lines.push(format!(
            "hello v{version}: {reply:?}{}",
            then.unwrap_or_default()
        ));
    }
    let (mut stream, _) = hello(addr, wire::PROTOCOL_VERSION);
    let requests = [
        Frame::HealthReq { id: 5 },
        Frame::ShardMapReq { id: 6 },
        Frame::MetricsReq { id: 7 },
        Frame::MetricsGet { id: 8 },
        Frame::TraceDumpReq {
            id: 9,
            max: 4,
            slow_only: false,
        },
    ];
    for request in &requests {
        send(&mut stream, request);
        let mut kinds = Vec::new();
        loop {
            let reply = recv(&mut stream).expect("a shared request is answered");
            assert_eq!(reply.id(), request.id());
            if kinds.last() != Some(&reply.tag()) {
                kinds.push(reply.tag());
            }
            let streamed = matches!(
                reply,
                Frame::MetricsHeader { .. } | Frame::MetricsChunk { .. }
            );
            if !streamed {
                break;
            }
        }
        lines.push(format!("{:#04x} -> {kinds:02x?}", request.tag()));
    }
    let refusals: [(&str, Vec<Frame>); 3] = [
        ("no hello", vec![Frame::HealthReq { id: 1 }]),
        (
            "second hello",
            vec![
                Frame::Hello {
                    version: 2,
                    max_frame: 4096,
                },
                Frame::Hello {
                    version: 2,
                    max_frame: 4096,
                },
            ],
        ),
        (
            "server frame",
            vec![
                Frame::Hello {
                    version: 2,
                    max_frame: 4096,
                },
                Frame::ResultEnd { id: 3 },
            ],
        ),
    ];
    for (what, frames) in refusals {
        let mut stream = TcpStream::connect(addr).unwrap();
        for frame in &frames {
            send(&mut stream, frame);
        }
        if frames.len() > 1 {
            let _ack = recv(&mut stream);
        }
        let refusal = recv(&mut stream);
        lines.push(format!("{what}: {refusal:?} then {:?}", recv(&mut stream)));
    }
    // A length prefix over the negotiated frame cap.
    let (mut stream, _) = hello(addr, 2);
    std::io::Write::write_all(&mut stream, &(wire::MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
    let refusal = recv(&mut stream);
    lines.push(format!(
        "oversized: {refusal:?} then {:?}",
        recv(&mut stream)
    ));
    lines
}

#[test]
fn a_daemon_and_a_router_present_the_same_front() {
    let fleet = pair(64);
    let daemon_lines = transcript(fleet.addr(0));
    let router_lines = transcript(fleet.router());
    assert_eq!(daemon_lines, router_lines);

    // And that shared behaviour is the specified one.
    let has = |needle: &str| {
        assert!(
            daemon_lines.iter().any(|l| l.contains(needle)),
            "no `{needle}` in {daemon_lines:#?}"
        )
    };
    has("hello v0: Some(Error { id: 0, code: Unsupported");
    has("hello v1: Some(HelloAck { version: 1,");
    has("hello v2: Some(HelloAck { version: 2,");
    has("hello v3: Some(HelloAck { version: 3,");
    has("hello v9: Some(HelloAck { version: 3,");
    has("0x05 -> [8c]");
    has("0x08 -> [8f]");
    has("0x03 -> [8a]");
    has("0x06 -> [8d, 8e, 85]");
    has("0x0b -> [93]");
    has("no hello: Some(Error { id: 0, code: Protocol, gaps: [], message: \"expected Hello");
    has("second hello: Some(Error { id: 0, code: Protocol, gaps: [], message: \"duplicate Hello");
    has("server frame: Some(Error { id: 0, code: Protocol, gaps: [], message: \"server-to-client");
    has("oversized: Some(Error { id: 0, code: Protocol, gaps: [], message: \"frame length");
    for line in daemon_lines.iter().filter(|l| l.contains(": Some(Error")) {
        assert!(line.ends_with("then None"), "no close after {line}");
    }

    fleet.shutdown();
}

#[test]
fn both_fronts_refuse_and_count_connections_over_the_cap() {
    let fleet = pair(2);
    let fronts = [
        (fleet.addr(0), fleet.plane(0), names::SERVE_SHED),
        (fleet.router(), fleet.router_plane(), names::ROUTER_SHED),
    ];
    for (addr, plane, series) in fronts {
        let shed = plane.registry().counter(series, &[]);
        assert_eq!(shed.get(), 0);
        // A completed handshake means the connection is counted.
        let _held = [
            Client::connect(addr).unwrap(),
            Client::connect(addr).unwrap(),
        ];
        let refused = Client::connect(addr).err().expect("third connection");
        assert!(
            matches!(refused, ClientError::Busy { retry_after_ms: 50 }),
            "{refused}"
        );
        assert_eq!(shed.get(), 1, "{series} did not move");
    }
    fleet.shutdown();
}

/// A stopping daemon and a stopping router end alike: an idle
/// connection's next query is refused with `Error{id: 0, ShuttingDown}`
/// (connection level, so it belongs to whatever exchange is running), and
/// a connection that sends nothing reads that same frame before its close.
#[test]
fn a_stopping_router_s_refusal_keeps_its_typed_code() {
    for front in ["daemon", "router"] {
        let fleet = pair(8);
        let addr = match front {
            "daemon" => fleet.addr(0),
            _ => fleet.router(),
        };
        let (mut silent, _) = hello(addr, wire::PROTOCOL_VERSION);
        let mut stopper = Client::connect(addr).unwrap();
        let mut bystander = Client::connect(addr).unwrap();
        stopper.shutdown_server().unwrap();
        let refused = bystander
            .query(Request::Replay {
                port: 0,
                from: 0,
                to: 10,
                d: 1,
            })
            .expect_err("a stopping process answers no query");
        assert!(
            matches!(
                refused,
                ClientError::Remote {
                    code: ErrorCode::ShuttingDown,
                    ..
                }
            ),
            "{front}: {refused}"
        );
        let last = recv(&mut silent);
        assert!(
            matches!(
                last,
                Some(Frame::Error {
                    id: 0,
                    code: ErrorCode::ShuttingDown,
                    ..
                })
            ),
            "{front}: {last:?}"
        );
        assert!(recv(&mut silent).is_none(), "{front}: no close");
        fleet.shutdown();
    }
}

/// A router stopped by `ShutdownReq` says farewell and exits without
/// waiting out its prober's interval.
#[test]
fn a_router_stopped_by_request_does_not_wait_for_its_prober() {
    let fleet = Fleet::new(vec![Sources::default()], &ServeConfig::default());
    let config = RouterConfig {
        probe_interval: Duration::from_secs(10),
        ..RouterConfig::default()
    };
    let backend = BackendSpec {
        name: "shard-0".into(),
        addr: fleet.addr(0).to_string(),
    };
    let router = Router::bind(("127.0.0.1", 0), vec![backend], config, &Telemetry::new()).unwrap();
    let addr = router.local_addr().unwrap();
    let running = thread::spawn(move || router.run());
    let silent: Vec<TcpStream> = (0..3)
        .map(|_| hello(addr, wire::PROTOCOL_VERSION).0)
        .collect();
    let stopped = Instant::now();
    Client::connect(addr).unwrap().shutdown_server().unwrap();
    for mut stream in silent {
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let last = recv(&mut stream);
        assert!(
            matches!(
                last,
                Some(Frame::Error {
                    id: 0,
                    code: ErrorCode::ShuttingDown,
                    ..
                })
            ),
            "{last:?}"
        );
        assert!(recv(&mut stream).is_none(), "no close");
    }
    while !running.is_finished() && stopped.elapsed() < Duration::from_secs(2) {
        thread::sleep(Duration::from_millis(5));
    }
    assert!(
        stopped.elapsed() < Duration::from_secs(1),
        "the router took {:?} to stop",
        stopped.elapsed()
    );
    running.join().unwrap().unwrap();
    fleet.shutdown();
}

/// A peer that handshakes, then answers every request with `Busy` under
/// the id `reply_id` makes of the request's.
fn busy_peer(reply_id: fn(u64) -> u64) -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let _hello = recv(&mut stream);
        send(
            &mut stream,
            &Frame::HelloAck {
                version: wire::PROTOCOL_VERSION,
                max_frame: wire::MAX_FRAME_LEN,
            },
        );
        while let Some(request) = recv(&mut stream) {
            send(
                &mut stream,
                &Frame::Busy {
                    id: reply_id(request.id()),
                    retry_after_ms: 7,
                },
            );
        }
    });
    addr
}

/// Every request method's outcome against `addr`, by method name.
fn every_method(addr: SocketAddr) -> Vec<(&'static str, ClientError)> {
    let mut c = Client::connect(addr).unwrap();
    let replay = Request::Replay {
        port: 0,
        from: 0,
        to: 10,
        d: 1,
    };
    vec![
        ("query", c.query(replay).err().unwrap()),
        ("queue_monitor", c.queue_monitor(0, 5).err().unwrap()),
        ("rtt", c.rtt(0, 0, 10, 0).err().unwrap()),
        ("metrics", c.metrics().err().unwrap()),
        ("health", c.health().err().unwrap()),
        ("shard_map", c.shard_map().err().unwrap()),
        ("metrics_snapshot", c.metrics_snapshot().err().unwrap()),
        ("trace_dump", c.trace_dump(4, false).err().unwrap()),
        ("profile_dump_bytes", c.profile_dump_bytes().err().unwrap()),
        ("standing", c.standing("q", 4, 0, true).err().unwrap()),
        ("shutdown_server", c.shutdown_server().err().unwrap()),
    ]
}

#[test]
fn every_client_method_judges_busy_and_ids_alike() {
    // A `Busy` under the request's id, or under the connection-level id 0,
    // is `ClientError::Busy` with the hint intact.
    let accepted: [fn(u64) -> u64; 2] = [|id| id, |_| 0];
    for reply_id in accepted {
        for (method, err) in every_method(busy_peer(reply_id)) {
            assert!(
                matches!(err, ClientError::Busy { retry_after_ms: 7 }),
                "{method}: {err}"
            );
        }
    }
    // Under anybody else's id it is a protocol violation.
    for (method, err) in every_method(busy_peer(|id| id + 1000)) {
        assert!(matches!(err, ClientError::Protocol(_)), "{method}: {err}");
    }
}

/// A peer that handshakes, answers health probes, and answers every
/// other request with one metrics update carrying `samples`.
/// Serves `conns` connections, one after the other.
fn metrics_peer(samples: Vec<WireSample>, conns: usize) -> (SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = thread::spawn(move || {
        for stream in listener.incoming().take(conns) {
            let mut stream = stream.unwrap();
            let _hello = recv(&mut stream);
            send(
                &mut stream,
                &Frame::HelloAck {
                    version: wire::PROTOCOL_VERSION,
                    max_frame: wire::MAX_FRAME_LEN,
                },
            );
            while let Some(request) = recv(&mut stream) {
                let id = request.id();
                if let Frame::HealthReq { .. } = request {
                    let health = HealthInfo::default();
                    send(&mut stream, &Frame::HealthAck { id, health });
                    continue;
                }
                let header = Frame::MetricsHeader {
                    id,
                    seq: 0,
                    t_ns: 1,
                    total: samples.len() as u32,
                    last: true,
                };
                let samples = samples.clone();
                for frame in [
                    header,
                    Frame::MetricsChunk { id, samples },
                    Frame::ResultEnd { id },
                ] {
                    send(&mut stream, &frame);
                }
            }
        }
    });
    (addr, peer)
}

/// A histogram no recorder produces — `min > max`, two samples claimed
/// and one bucketed — is still a well-formed `MetricsChunk`, and a live
/// snapshot torn by a racing recorder can look the same. Everything
/// downstream of the metrics stream must answer on it: `clamp(min, max)`
/// in the quantile estimator used to panic the client, the alert engine
/// and `pqsim watch` alike.
#[test]
fn an_inconsistent_peer_histogram_is_queried_not_panicked_on() {
    let hostile = |name: &str, labels: &[(&str, &str)]| WireSample {
        name: name.into(),
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        value: WireValue::Histogram {
            count: 2,
            sum: 300,
            min: 200,
            max: 100,
            buckets: vec![(7, 1)],
            exemplars: vec![],
        },
    };
    let counter = |name: &str, labels: &[(&str, &str)]| WireSample {
        value: WireValue::Counter(5),
        ..hostile(name, labels)
    };
    // The series `pqsim watch` computes quantiles of: the RTT row and the
    // profiler hotspot row, each gated on a sibling counter.
    let samples = vec![
        counter(names::RTT_SAMPLES, &[("port", "0")]),
        hostile(names::RTT_SAMPLE_NS, &[("port", "0")]),
        counter(names::PROF_SCOPE_SELF_NS, &[("scope", "serve/worker_exec")]),
        hostile(names::LOCK_WAIT_NS, &[("lock", "freeze")]),
        hostile(names::SERVE_REQUEST_NS, &[]),
    ];
    let (addr, peer) = metrics_peer(samples, 2);

    let mut client = Client::connect(addr).unwrap();
    let folded = client.metrics_snapshot().unwrap().changed;
    drop(client);
    let h = folded.histogram(names::SERVE_REQUEST_NS, &[]).unwrap();
    assert_eq!((h.count, h.min, h.max), (2, 200, 100));
    assert!(h.p50() <= 200 && h.p99() <= 200);
    let rule = AlertRule::threshold("slow", names::SERVE_REQUEST_NS, Op::Gt, 1e9);
    let mut engine = AlertEngine::new(vec![rule.with_stat(Stat::P99)]);
    engine.evaluate(1, &folded);
    assert!(engine.firing().is_empty());

    let watch = std::process::Command::new(env!("CARGO_BIN_EXE_pqsim"))
        .args(["watch", &addr.to_string(), "--once", "--quiet"])
        .output()
        .unwrap();
    let (out, err) = (
        String::from_utf8_lossy(&watch.stdout),
        String::from_utf8_lossy(&watch.stderr),
    );
    assert!(watch.status.success(), "pqsim watch failed: {err}");
    assert!(out.contains("rtt 5 samples"), "no rtt row in {out}");
    assert!(out.contains("freeze wait p99"), "no hotspot row in {out}");
    peer.join().unwrap();
}

/// `pqsim watch` polls a router exactly as it polls a daemon: `--once`
/// takes two polls and `--updates N` takes N, whichever is watched, and
/// the request rate between polls counts the watcher's own reads, so it
/// is finite and above zero on either tier.
#[test]
fn watch_polls_a_router_like_a_daemon() {
    let fleet = pair(8);
    for addr in [fleet.addr(0), fleet.router()] {
        let watch = |extra: &[&str]| {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_pqsim"))
                .args(["watch", &addr.to_string(), "--interval-ms", "20", "--json"])
                .args(extra)
                .arg("--quiet")
                .output()
                .unwrap();
            let (stdout, stderr) = (
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr),
            );
            assert!(out.status.success(), "watch {addr} {extra:?}: {stderr}");
            // Without `--once` the dashboard frames come first; the JSON
            // report is the last line.
            let last = stdout.lines().last().unwrap_or_default().to_string();
            let doc: Value = serde_json::from_str(&last)
                .unwrap_or_else(|e| panic!("watch {addr} {extra:?}: {e}: {stdout}"));
            let updates = doc
                .get("watch")
                .and_then(|w| w.get("pq_watch_updates_total"));
            let Some(&Value::U64(updates)) = updates else {
                panic!("watch {addr} {extra:?}: no poll count in {last}")
            };
            let qps = match doc.get("qps") {
                Some(&Value::F64(qps)) => Some(qps),
                Some(&Value::U64(qps)) => Some(qps as f64),
                _ => None,
            };
            (updates, qps)
        };
        let (updates, qps) = watch(&["--once"]);
        assert!(updates >= 2, "watch {addr} --once: {updates} polls");
        assert!(
            qps.is_some_and(|qps| qps.is_finite() && qps > 0.0),
            "watch {addr}: qps {qps:?}"
        );
        assert_eq!(watch(&["--updates", "3"]).0, 3, "watch {addr} --updates 3");
    }
    fleet.shutdown();
}
