//! Golden wire corpus: the bytes `pq-serve`'s codec produced at commit
//! `44a4b40` (the hand-paired `encode_body`/`decode_body`), one vector
//! per line of `tests/data/wire_golden.hex`. Any codec rewrite must
//! reproduce them bit for bit and decode them to the same values.
//!
//! To extend the corpus (a new frame, a new shape), add a vector below
//! and run the test: it fails printing the line to append to the file.

use printqueue::core::control::CoverageGap;
use printqueue::packet::FlowId;
use printqueue::serve::wire::{
    decode_body, encode_body, ErrorCode, Frame, HealthInfo, Request, ShardMap, ShardMapEntry,
    StreamResult, WireSample, WireValue, ENTRIES_PER_FRAME, MAX_BACKENDS_PER_MAP, MAX_FRAME_LEN,
    MAX_LABELS_PER_SAMPLE, MAX_PROF_DUMP_LEN, MAX_RTT_REPORT_LEN, MAX_SPANS_PER_TRACE,
    MAX_TRACES_PER_DUMP, METRIC_SAMPLES_PER_FRAME, PROF_BYTES_PER_FRAME, RTT_BYTES_PER_FRAME,
};
use printqueue::stream::RttAgg;
use printqueue::telemetry::{BucketExemplar, Trace, TraceContext, TraceSpan, NUM_BUCKETS};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::catch_unwind;

const CORPUS: &str = include_str!("data/wire_golden.hex");

/// A quiet-NaN with a payload: flow values are raw bits on the wire.
const NAN_BITS: u64 = 0x7ff8_dead_beef_0001;

fn ctx() -> Option<TraceContext> {
    Some(TraceContext {
        trace_id: 0xdead_beef_cafe_f00d_0123_4567_89ab_cdef,
        parent_span: 0x1122_3344_5566_7788,
        sampled: true,
    })
}

fn gaps(n: usize) -> Vec<CoverageGap> {
    (0..n as u64)
        .map(|i| CoverageGap {
            from: i * 1_000,
            to: i * 1_000 + 999,
        })
        .collect()
}

fn flows(n: usize) -> Vec<(FlowId, f64)> {
    (0..n as u32)
        .map(|i| (FlowId(i * 7 + 1), f64::from(i) * 0.25 + 0.5))
        .collect()
}

fn span(i: u64) -> TraceSpan {
    TraceSpan {
        span_id: i + 1,
        parent_span: i,
        name: "worker_exec".into(),
        process: "serve:a".into(),
        tag: format!("cache=miss#{i}"),
        start_ns: 100 + i,
        end_ns: 900 + i,
    }
}

fn trace(i: u128, spans: usize) -> Trace {
    Trace {
        trace_id: 0xfeed_0000 + i,
        root_span: 5,
        duration_ns: 1_000_000,
        slow: i % 2 == 1,
        spans: (0..spans as u64).map(span).collect(),
    }
}

fn window(flows: Vec<(FlowId, f64)>, gaps: Vec<CoverageGap>, rtt: RttAgg) -> Box<StreamResult> {
    Box::new(StreamResult {
        seq: 2,
        watermark_ns: 5_000_000,
        port: 3,
        from: 1_000_000,
        to: 2_000_000,
        fired: true,
        forced: false,
        degraded: true,
        last: false,
        max: 12,
        min: 1,
        sum: 40,
        count: 7,
        last_t: 1_900_000,
        last_depth: 9,
        flows,
        evictions: 3,
        evicted_weight: 2.25,
        gaps,
        rtt,
    })
}

fn rtt_agg() -> RttAgg {
    let mut rtt = RttAgg::default();
    for (t, v) in [(10u64, 250_000u64), (20, 300_000), (30, 1_900_000)] {
        rtt.offer(t, v);
    }
    rtt
}

fn histogram(buckets: usize, exemplars: usize) -> WireValue {
    WireValue::Histogram {
        count: 2,
        sum: 300,
        min: 100,
        max: 200,
        buckets: (0..buckets as u8).map(|i| (i, u64::from(i) + 1)).collect(),
        exemplars: (0..exemplars as u8)
            .map(|bucket| BucketExemplar {
                bucket,
                trace_id: 0xabcd + u128::from(bucket),
                value: 200,
            })
            .collect(),
    }
}

fn request(req: Request, trace: Option<TraceContext>) -> Frame {
    Frame::Request { id: 7, req, trace }
}

/// Every vector: all 35 tags; both trailer states of the six frames that
/// carry a trace context; `StandingQueryResult` with and without its RTT
/// suffix; empty and full-cap collections; a NaN-payload estimate.
fn vectors() -> Vec<(&'static str, Frame)> {
    let replay = Request::Replay {
        port: 3,
        from: 10,
        to: 999,
        d: 110,
    };
    let rtt_req = Request::Rtt {
        port: 3,
        from: 0,
        to: u64::MAX,
        max_flows: 16,
    };
    let standing_req = |trace| Frame::StandingQueryReq {
        id: 31,
        cap: 64,
        max_windows: 0,
        stop_after_seal: true,
        query: "port 3 window tumbling 1ms where max(depth) > 5 topk 8 emit flows".into(),
        trace,
    };
    let result_header = |trace| Frame::ResultHeader {
        id: 17,
        degraded: false,
        checkpoints: 40,
        flows: 2,
        gaps: 0,
        trace,
    };
    let monitor_header = |trace| Frame::MonitorHeader {
        id: 18,
        degraded: true,
        frozen_at: 7,
        staleness: 9,
        counts: 3,
        gaps: 1,
        trace,
    };
    let standing_ack = |trace| Frame::StandingQueryAck {
        id: 31,
        cap: 64,
        query: "port 3 window tumbling 1ms emit flows".into(),
        trace,
    };
    let rtt_header = |trace| Frame::RttHeader {
        id: 41,
        degraded: true,
        total: MAX_RTT_REPORT_LEN,
        trace,
    };
    let sample = |i: usize, labels: usize, value: WireValue| WireSample {
        name: format!("pq_serve_series_{i}"),
        labels: (0..labels)
            .map(|l| (format!("k{l}"), format!("v{l}")))
            .collect(),
        value,
    };
    vec![
        (
            "hello",
            Frame::Hello {
                version: 2,
                max_frame: MAX_FRAME_LEN,
            },
        ),
        (
            "request_time_windows",
            request(
                Request::TimeWindows {
                    port: 3,
                    from: 10,
                    to: 999,
                },
                None,
            ),
        ),
        (
            "request_queue_monitor",
            request(Request::QueueMonitor { port: 2, at: 500 }, None),
        ),
        ("request_replay", request(replay, None)),
        ("request_replay_traced", request(replay, ctx())),
        ("request_rtt", request(rtt_req, None)),
        ("request_rtt_traced", request(rtt_req, ctx())),
        ("metrics_req", Frame::MetricsReq { id: 3 }),
        ("shutdown_req", Frame::ShutdownReq { id: 4 }),
        ("health_req", Frame::HealthReq { id: 11 }),
        ("metrics_get", Frame::MetricsGet { id: 12 }),
        ("shard_map_req", Frame::ShardMapReq { id: 21 }),
        ("standing_query_req", standing_req(None)),
        ("standing_query_req_traced", standing_req(ctx())),
        (
            "standing_query_cancel",
            Frame::StandingQueryCancel { id: 32, sub: 31 },
        ),
        (
            "trace_dump_req",
            Frame::TraceDumpReq {
                id: 19,
                max: 16,
                slow_only: true,
            },
        ),
        ("profile_dump_req", Frame::ProfileDumpReq { id: 51 }),
        (
            "hello_ack",
            Frame::HelloAck {
                version: 2,
                max_frame: 1024,
            },
        ),
        ("result_header", result_header(None)),
        ("result_header_traced", result_header(ctx())),
        (
            "result_flows_empty",
            Frame::ResultFlows {
                id: 1,
                flows: vec![],
            },
        ),
        (
            "result_flows_nan",
            Frame::ResultFlows {
                id: 1,
                flows: vec![(FlowId(4), 1.5), (FlowId(9), f64::from_bits(NAN_BITS))],
            },
        ),
        (
            "result_flows_full",
            Frame::ResultFlows {
                id: 1,
                flows: flows(ENTRIES_PER_FRAME),
            },
        ),
        (
            "result_gaps_empty",
            Frame::ResultGaps {
                id: 2,
                gaps: vec![],
            },
        ),
        (
            "result_gaps_full",
            Frame::ResultGaps {
                id: 2,
                gaps: gaps(ENTRIES_PER_FRAME),
            },
        ),
        ("result_end", Frame::ResultEnd { id: 3 }),
        ("monitor_header", monitor_header(None)),
        ("monitor_header_traced", monitor_header(ctx())),
        (
            "monitor_counts_empty",
            Frame::MonitorCounts {
                id: 5,
                counts: vec![],
            },
        ),
        (
            "monitor_counts_full",
            Frame::MonitorCounts {
                id: 5,
                counts: (0..ENTRIES_PER_FRAME as u32)
                    .map(|i| (FlowId(i), u64::from(i) * 3))
                    .collect(),
            },
        ),
        (
            "error_bare",
            Frame::Error {
                id: 0,
                code: ErrorCode::ShuttingDown,
                gaps: vec![],
                message: String::new(),
            },
        ),
        (
            "error_full_gaps",
            Frame::Error {
                id: 2,
                code: ErrorCode::Io,
                gaps: gaps(ENTRIES_PER_FRAME),
                message: "read failed: naïve ünïcode".into(),
            },
        ),
        (
            "busy",
            Frame::Busy {
                id: 0,
                retry_after_ms: 50,
            },
        ),
        (
            "metrics_text",
            Frame::MetricsText {
                id: 6,
                text: "# HELP pq_serve_shed_total sheds\npq_serve_shed_total 7\n".into(),
            },
        ),
        ("shutdown_ack", Frame::ShutdownAck { id: 4 }),
        (
            "health_ack",
            Frame::HealthAck {
                id: 14,
                health: HealthInfo {
                    uptime_ns: 1_000_000,
                    workers: 4,
                    busy_workers: 2,
                    queue_depth: 3,
                    queue_cap: 128,
                    active_conns: 1,
                    max_conns: 64,
                    draining: true,
                    version: "0.1.0".into(),
                    commit: "abc123".into(),
                    shard: "shard-1".into(),
                },
            },
        ),
        (
            "metrics_header",
            Frame::MetricsHeader {
                id: 15,
                seq: 9,
                t_ns: 77,
                total: 2,
                last: true,
            },
        ),
        (
            "metrics_chunk_empty",
            Frame::MetricsChunk {
                id: 16,
                samples: vec![],
            },
        ),
        (
            "metrics_chunk_kinds",
            Frame::MetricsChunk {
                id: 16,
                samples: vec![
                    sample(0, 0, WireValue::Counter(7)),
                    sample(1, MAX_LABELS_PER_SAMPLE, WireValue::Gauge(u64::MAX)),
                    sample(2, 1, histogram(0, 0)),
                    sample(3, 1, histogram(NUM_BUCKETS, NUM_BUCKETS)),
                ],
            },
        ),
        (
            "metrics_chunk_full",
            Frame::MetricsChunk {
                id: 16,
                samples: (0..METRIC_SAMPLES_PER_FRAME)
                    .map(|i| sample(i, 0, WireValue::Counter(i as u64)))
                    .collect(),
            },
        ),
        (
            "shard_map_ack_empty",
            Frame::ShardMapAck {
                id: 22,
                map: ShardMap::default(),
            },
        ),
        (
            "shard_map_ack_full",
            Frame::ShardMapAck {
                id: 22,
                map: ShardMap {
                    generation: 3,
                    replication: 2,
                    epoch_ns: 1_000_000,
                    backends: (0..MAX_BACKENDS_PER_MAP)
                        .map(|i| ShardMapEntry {
                            shard: format!("s{i}"),
                            addr: format!("127.0.0.1:{}", 4000 + i),
                            healthy: i % 3 != 0,
                        })
                        .collect(),
                },
            },
        ),
        ("standing_query_ack", standing_ack(None)),
        ("standing_query_ack_traced", standing_ack(ctx())),
        (
            "standing_query_result_bare",
            Frame::StandingQueryResult {
                id: 31,
                result: window(vec![], vec![], RttAgg::default()),
            },
        ),
        (
            "standing_query_result_rtt",
            Frame::StandingQueryResult {
                id: 31,
                result: window(flows(2), gaps(1), rtt_agg()),
            },
        ),
        (
            "standing_query_result_full",
            Frame::StandingQueryResult {
                id: 31,
                result: window(
                    flows(ENTRIES_PER_FRAME),
                    gaps(ENTRIES_PER_FRAME),
                    RttAgg::default(),
                ),
            },
        ),
        (
            "trace_dump_ack_empty",
            Frame::TraceDumpAck {
                id: 19,
                traces: vec![],
            },
        ),
        (
            "trace_dump_ack_full_traces",
            Frame::TraceDumpAck {
                id: 19,
                traces: (0..MAX_TRACES_PER_DUMP as u128)
                    .map(|i| trace(i, (i % 2) as usize))
                    .collect(),
            },
        ),
        (
            "trace_dump_ack_full_spans",
            Frame::TraceDumpAck {
                id: 19,
                traces: vec![trace(0, MAX_SPANS_PER_TRACE)],
            },
        ),
        ("rtt_header", rtt_header(None)),
        ("rtt_header_traced", rtt_header(ctx())),
        (
            "rtt_chunk_empty",
            Frame::RttChunk {
                id: 41,
                bytes: vec![],
            },
        ),
        (
            "rtt_chunk_full",
            Frame::RttChunk {
                id: 41,
                bytes: (0..RTT_BYTES_PER_FRAME).map(|i| (i % 251) as u8).collect(),
            },
        ),
        (
            "prof_header",
            Frame::ProfHeader {
                id: 51,
                total: MAX_PROF_DUMP_LEN,
            },
        ),
        (
            "prof_chunk_empty",
            Frame::ProfChunk {
                id: 51,
                bytes: vec![],
            },
        ),
        (
            "prof_chunk_full",
            Frame::ProfChunk {
                id: 51,
                bytes: (0..PROF_BYTES_PER_FRAME).map(|i| (i % 241) as u8).collect(),
            },
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("corpus lines are hex"))
        .collect()
}

fn corpus() -> BTreeMap<&'static str, Vec<u8>> {
    CORPUS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, bytes) = l.split_once(' ').expect("corpus lines are `name hex`");
            (name, unhex(bytes))
        })
        .collect()
}

#[test]
fn codec_reproduces_the_golden_corpus() {
    let corpus = corpus();
    let vectors = vectors();
    assert_eq!(
        corpus.len(),
        vectors.len(),
        "corpus lines and vectors differ"
    );
    for (name, frame) in &vectors {
        let encoded = encode_body(frame);
        let Some(golden) = corpus.get(name) else {
            panic!(
                "no corpus line for `{name}`; append:\n{name} {}",
                hex(&encoded)
            );
        };
        assert!(encoded == *golden, "`{name}` encodes differently");
        let decoded = decode_body(golden).unwrap_or_else(|e| panic!("`{name}`: {e}"));
        // NaN never equals itself, so those vectors compare re-encoded bits.
        assert!(
            decoded == *frame || name.ends_with("_nan"),
            "`{name}` decodes to a different value: {decoded:?}"
        );
        assert!(
            encode_body(&decoded) == *golden,
            "`{name}` re-encodes differently"
        );
    }
}

#[test]
fn every_frame_tag_has_a_vector() {
    let covered: BTreeSet<u8> = vectors().iter().map(|(_, f)| encode_body(f)[0]).collect();
    let declared: BTreeSet<u8> = Frame::TAGS.iter().copied().collect();
    assert_eq!(covered, declared, "frame tags without a golden vector");
    assert_eq!(
        declared.len(),
        33,
        "35 tags less the metrics subscription's two"
    );
}

/// The metrics subscription's frames, retired in protocol version 3, as
/// their last golden vectors encoded them: a peer still sending either
/// gets a decode error, never a panic and never another frame.
#[test]
fn retired_subscription_tags_are_refused() {
    let retired = [
        ("metrics_subscribe", "070d00000000000000fa00000004000000"),
        ("subscribe_ack", "9221000000000000000a00000004000000"),
    ];
    for (name, bytes) in retired {
        let bytes = unhex(bytes);
        assert!(!Frame::TAGS.contains(&bytes[0]), "`{name}` tag is live");
        let decoded = catch_unwind(|| decode_body(&bytes))
            .unwrap_or_else(|_| panic!("`{name}` panicked the decoder"));
        assert!(decoded.is_err(), "`{name}` decoded to {decoded:?}");
    }
}

/// Every vector with each byte flipped in turn (all eight bits): the
/// decoder answers `Ok` or `Err` and never panics. Cuts are covered by the
/// codec's unit tests; this pins the shared cursor's hostile-input
/// behaviour on every frame shape of the corpus.
#[test]
fn every_single_byte_flip_decodes_or_errs() {
    for (name, mut bytes) in corpus() {
        let mut refused = 0;
        for i in 0..bytes.len() {
            bytes[i] ^= 0xff;
            let decoded = catch_unwind(|| decode_body(&bytes))
                .unwrap_or_else(|_| panic!("`{name}` with byte {i} flipped panicked"));
            refused += usize::from(decoded.is_err());
            bytes[i] ^= 0xff;
        }
        // The tag byte alone flips to an unknown frame type.
        assert!(refused > 0, "`{name}`: no flip refused");
    }
}
