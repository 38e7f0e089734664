//! Adversarial property tests for the wire protocol: every frame type
//! round-trips bit-exactly, and no sequence of malformed, truncated, or
//! hostile bytes can panic the decoder or trick it into over-allocating.

use pq_core::control::CoverageGap;
use pq_packet::FlowId;
use pq_serve::wire::{
    decode_body, encode_body, read_frame, ErrorCode, Frame, HealthInfo, Request, ShardMap,
    ShardMapEntry, WireError, WireSample, WireValue, MAX_FRAME_LEN, MAX_PROF_DUMP_LEN,
    PROF_BYTES_PER_FRAME, TRACE_EXT_LEN,
};
use pq_telemetry::{BucketExemplar, Trace, TraceContext, TraceSpan, NUM_BUCKETS};
use proptest::prelude::*;
use std::io::Cursor;

fn arb_gaps() -> impl Strategy<Value = Vec<CoverageGap>> {
    proptest::collection::vec(
        (any::<u64>(), any::<u64>()).prop_map(|(from, to)| CoverageGap { from, to }),
        0..20,
    )
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    (1u16..=9).prop_map(|v| ErrorCode::from_u16(v).unwrap())
}

fn arb_trace_ctx() -> impl Strategy<Value = TraceContext> {
    (any::<u128>(), any::<u64>(), any::<bool>()).prop_map(|(trace_id, parent_span, sampled)| {
        TraceContext {
            trace_id,
            parent_span,
            sampled,
        }
    })
}

fn arb_span() -> impl Strategy<Value = TraceSpan> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        arb_string(12),
        arb_string(12),
        arb_string(12),
    )
        .prop_map(
            |((span_id, parent_span, start_ns, end_ns), name, process, tag)| TraceSpan {
                span_id,
                parent_span,
                name,
                process,
                tag,
                start_ns,
                end_ns,
            },
        )
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        any::<u128>(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        proptest::collection::vec(arb_span(), 0..4),
    )
        .prop_map(|(trace_id, root_span, duration_ns, slow, spans)| Trace {
            trace_id,
            root_span,
            duration_ns,
            slow,
            spans,
        })
}

/// Arbitrary UTF-8 strings up to `max` bytes (lossy-converted byte soup,
/// which covers multi-byte sequences too).
fn arb_string(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..max)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Arbitrary non-empty strings (the decoder rejects empty sample names).
fn arb_nonempty_string(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 1..max)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

fn arb_wire_value() -> impl Strategy<Value = WireValue> {
    prop_oneof![
        any::<u64>().prop_map(WireValue::Counter).boxed(),
        any::<u64>().prop_map(WireValue::Gauge).boxed(),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec((0u8..65, any::<u64>()), 0..10),
            proptest::collection::vec(
                (0u8..NUM_BUCKETS as u8, any::<u128>(), any::<u64>()).prop_map(
                    |(bucket, trace_id, value)| BucketExemplar {
                        bucket,
                        trace_id,
                        value,
                    }
                ),
                0..6,
            ),
        )
            .prop_map(
                |(count, sum, min, max, buckets, exemplars)| WireValue::Histogram {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                    exemplars,
                }
            )
            .boxed(),
    ]
}

fn arb_sample() -> impl Strategy<Value = WireSample> {
    (
        arb_nonempty_string(20),
        proptest::collection::vec((arb_string(10), arb_string(10)), 0..8),
        arb_wire_value(),
    )
        .prop_map(|(name, labels, value)| WireSample {
            name,
            labels,
            value,
        })
}

fn arb_health() -> impl Strategy<Value = HealthInfo> {
    (
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
        ),
        (any::<u32>(), any::<u32>(), any::<bool>()),
        arb_string(16),
        arb_string(48),
        arb_string(24),
    )
        .prop_map(
            |(
                (uptime_ns, workers, busy_workers, queue_depth, queue_cap),
                (active_conns, max_conns, draining),
                version,
                commit,
                shard,
            )| HealthInfo {
                uptime_ns,
                workers,
                busy_workers,
                queue_depth,
                queue_cap,
                active_conns,
                max_conns,
                draining,
                version,
                commit,
                shard,
            },
        )
}

fn arb_shard_map() -> impl Strategy<Value = ShardMap> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec(
            (arb_string(16), arb_string(24), any::<bool>()).prop_map(|(shard, addr, healthy)| {
                ShardMapEntry {
                    shard,
                    addr,
                    healthy,
                }
            }),
            0..8,
        ),
    )
        .prop_map(|(generation, replication, epoch_ns, backends)| ShardMap {
            generation,
            replication,
            epoch_ns,
            backends,
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u16>(), any::<u64>(), any::<u64>())
            .prop_map(|(port, from, to)| Request::TimeWindows { port, from, to })
            .boxed(),
        (any::<u16>(), any::<u64>())
            .prop_map(|(port, at)| Request::QueueMonitor { port, at })
            .boxed(),
        (any::<u16>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(port, from, to, d)| Request::Replay { port, from, to, d })
            .boxed(),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u16>(), 0u32..=MAX_FRAME_LEN)
            .prop_map(|(version, max_frame)| Frame::Hello { version, max_frame })
            .boxed(),
        (any::<u16>(), 0u32..=MAX_FRAME_LEN)
            .prop_map(|(version, max_frame)| Frame::HelloAck { version, max_frame })
            .boxed(),
        (any::<u64>(), arb_request())
            .prop_map(|(id, req)| Frame::Request {
                id,
                req,
                trace: None,
            })
            .boxed(),
        any::<u64>().prop_map(|id| Frame::MetricsReq { id }).boxed(),
        any::<u64>()
            .prop_map(|id| Frame::ShutdownReq { id })
            .boxed(),
        any::<u64>()
            .prop_map(|id| Frame::ShutdownAck { id })
            .boxed(),
        any::<u64>().prop_map(|id| Frame::ResultEnd { id }).boxed(),
        (
            any::<u64>(),
            any::<bool>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(
                |(id, degraded, checkpoints, flows, gaps)| Frame::ResultHeader {
                    id,
                    degraded,
                    checkpoints,
                    flows,
                    gaps,
                    trace: None,
                }
            )
            .boxed(),
        (
            any::<u64>(),
            proptest::collection::vec(
                (any::<u32>(), any::<u64>())
                    .prop_map(|(f, bits)| (FlowId(f), f64::from_bits(bits))),
                0..50,
            )
        )
            .prop_map(|(id, flows)| Frame::ResultFlows { id, flows })
            .boxed(),
        (any::<u64>(), arb_gaps())
            .prop_map(|(id, gaps)| Frame::ResultGaps { id, gaps })
            .boxed(),
        (
            any::<u64>(),
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(id, degraded, frozen_at, staleness, counts, gaps)| {
                Frame::MonitorHeader {
                    id,
                    degraded,
                    frozen_at,
                    staleness,
                    counts,
                    gaps,
                    trace: None,
                }
            })
            .boxed(),
        (
            any::<u64>(),
            proptest::collection::vec(
                (any::<u32>(), any::<u64>()).prop_map(|(f, n)| (FlowId(f), n)),
                0..50,
            )
        )
            .prop_map(|(id, counts)| Frame::MonitorCounts { id, counts })
            .boxed(),
        (any::<u64>(), arb_error_code(), arb_gaps(), arb_string(80))
            .prop_map(|(id, code, gaps, message)| Frame::Error {
                id,
                code,
                gaps,
                message,
            })
            .boxed(),
        (any::<u64>(), any::<u32>())
            .prop_map(|(id, retry_after_ms)| Frame::Busy { id, retry_after_ms })
            .boxed(),
        (any::<u64>(), arb_string(200))
            .prop_map(|(id, text)| Frame::MetricsText { id, text })
            .boxed(),
        any::<u64>().prop_map(|id| Frame::HealthReq { id }).boxed(),
        any::<u64>().prop_map(|id| Frame::MetricsGet { id }).boxed(),
        (any::<u64>(), arb_health())
            .prop_map(|(id, health)| Frame::HealthAck { id, health })
            .boxed(),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<bool>()
        )
            .prop_map(|(id, seq, t_ns, total, last)| Frame::MetricsHeader {
                id,
                seq,
                t_ns,
                total,
                last,
            })
            .boxed(),
        (any::<u64>(), proptest::collection::vec(arb_sample(), 0..5))
            .prop_map(|(id, samples)| Frame::MetricsChunk { id, samples })
            .boxed(),
        any::<u64>()
            .prop_map(|id| Frame::ShardMapReq { id })
            .boxed(),
        (any::<u64>(), arb_shard_map())
            .prop_map(|(id, map)| Frame::ShardMapAck { id, map })
            .boxed(),
        (any::<u64>(), any::<u32>(), any::<bool>())
            .prop_map(|(id, max, slow_only)| Frame::TraceDumpReq { id, max, slow_only })
            .boxed(),
        (any::<u64>(), proptest::collection::vec(arb_trace(), 0..3))
            .prop_map(|(id, traces)| Frame::TraceDumpAck { id, traces })
            .boxed(),
        any::<u64>()
            .prop_map(|id| Frame::ProfileDumpReq { id })
            .boxed(),
        (any::<u64>(), 0u32..=MAX_PROF_DUMP_LEN)
            .prop_map(|(id, total)| Frame::ProfHeader { id, total })
            .boxed(),
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..PROF_BYTES_PER_FRAME.min(512))
        )
            .prop_map(|(id, bytes)| Frame::ProfChunk { id, bytes })
            .boxed(),
    ]
}

/// Frames that can carry the optional trace-context extension, with the
/// extension present. Kept OUT of [`arb_frame`]: truncating a traced
/// frame by exactly its extension yields a *valid* untraced frame, so the
/// every-prefix-errors property only holds for extension-free bodies
/// (the aliasing itself is pinned down in `traced_prefixes` below).
fn arb_traced_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u64>(), arb_request(), arb_trace_ctx())
            .prop_map(|(id, req, ctx)| Frame::Request {
                id,
                req,
                trace: Some(ctx),
            })
            .boxed(),
        (
            any::<u64>(),
            any::<bool>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            arb_trace_ctx()
        )
            .prop_map(
                |(id, degraded, checkpoints, flows, gaps, ctx)| Frame::ResultHeader {
                    id,
                    degraded,
                    checkpoints,
                    flows,
                    gaps,
                    trace: Some(ctx),
                }
            )
            .boxed(),
        (
            any::<u64>(),
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            arb_trace_ctx()
        )
            .prop_map(|(id, degraded, frozen_at, staleness, counts, gaps, ctx)| {
                Frame::MonitorHeader {
                    id,
                    degraded,
                    frozen_at,
                    staleness,
                    counts,
                    gaps,
                    trace: Some(ctx),
                }
            })
            .boxed(),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            arb_string(40),
            arb_trace_ctx()
        )
            .prop_map(|(id, cap, max_windows, stop_after_seal, query, ctx)| {
                Frame::StandingQueryReq {
                    id,
                    cap,
                    max_windows,
                    stop_after_seal,
                    query,
                    trace: Some(ctx),
                }
            })
            .boxed(),
        (any::<u64>(), any::<u32>(), arb_string(40), arb_trace_ctx())
            .prop_map(|(id, cap, query, ctx)| Frame::StandingQueryAck {
                id,
                cap,
                query,
                trace: Some(ctx),
            })
            .boxed(),
    ]
}

/// The same frame with its trace context removed.
fn strip_trace(frame: &Frame) -> Frame {
    let mut bare = frame.clone();
    match &mut bare {
        Frame::Request { trace, .. }
        | Frame::ResultHeader { trace, .. }
        | Frame::MonitorHeader { trace, .. }
        | Frame::StandingQueryReq { trace, .. }
        | Frame::StandingQueryAck { trace, .. } => *trace = None,
        _ => unreachable!("arb_traced_frame only yields extension carriers"),
    }
    bare
}

proptest! {
    #[test]
    fn every_frame_round_trips_bit_exactly(frame in arb_frame()) {
        let body = encode_body(&frame);
        let back = decode_body(&body).expect("clean encoding must decode");
        // Bit-level identity (also correct for NaN flow values, where
        // `PartialEq` would lie).
        prop_assert_eq!(encode_body(&back), body);
    }

    #[test]
    fn truncation_never_panics_and_never_succeeds(frame in arb_frame()) {
        let body = encode_body(&frame);
        // Every strict prefix must decode to an error (the payload is
        // incomplete) without panicking. Skip len-0: an empty body has no
        // type byte and is also an error, checked below.
        for cut in 0..body.len() {
            prop_assert!(
                decode_body(&body[..cut]).is_err(),
                "decode of a {}-byte prefix of a {}-byte body succeeded",
                cut,
                body.len()
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(frame in arb_frame(), tail in proptest::collection::vec(any::<u8>(), 1..16)) {
        let mut body = encode_body(&frame);
        body.extend_from_slice(&tail);
        // A frame followed by extra bytes is malformed: accepting it would
        // let desynchronized streams slip through silently.
        prop_assert!(decode_body(&body).is_err());
    }

    #[test]
    fn traced_frames_round_trip_bit_exactly(frame in arb_traced_frame()) {
        let body = encode_body(&frame);
        let back = decode_body(&body).expect("traced encoding must decode");
        prop_assert_eq!(encode_body(&back), body);
    }

    #[test]
    fn absent_trace_context_is_a_strict_prefix(frame in arb_traced_frame()) {
        // `None` encodes zero bytes: the untraced body is bit-identical to
        // the v1 layout, and the traced body is exactly it plus the
        // fixed-width extension. This is the wire-level back-compat
        // contract: an old peer decoding an untraced frame sees v1 bytes.
        let traced = encode_body(&frame);
        let bare = encode_body(&strip_trace(&frame));
        prop_assert_eq!(traced.len(), bare.len() + TRACE_EXT_LEN);
        prop_assert_eq!(&traced[..bare.len()], &bare[..]);
    }

    #[test]
    fn traced_prefixes_alias_only_the_bare_frame(frame in arb_traced_frame()) {
        // Every strict prefix of a traced body errors, EXCEPT the one that
        // drops exactly the extension — which must decode to the same
        // frame without its context (how an old build reads new bytes
        // after the length prefix is adjusted). No prefix may panic.
        let body = encode_body(&frame);
        let bare_len = body.len() - TRACE_EXT_LEN;
        for cut in 0..body.len() {
            match decode_body(&body[..cut]) {
                Ok(decoded) => {
                    prop_assert!(cut == bare_len, "only the extension-free cut may decode");
                    prop_assert_eq!(decoded, strip_trace(&frame));
                }
                Err(_) => prop_assert!(cut != bare_len, "the extension-free cut must decode"),
            }
        }
    }

    #[test]
    fn unknown_trace_flags_are_rejected(frame in arb_traced_frame(), bad_bits in 1u8..=127) {
        // flags is the second-to-last-25th byte: magic(1) flags(1)
        // trace_id(16) parent(8) from the tail. Any bit beyond bit 0 must
        // refuse the frame rather than round-trip lossily.
        let mut body = encode_body(&frame);
        let flags_at = body.len() - TRACE_EXT_LEN + 1;
        body[flags_at] |= bad_bits << 1;
        prop_assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
    }

    #[test]
    fn traced_trailing_garbage_is_rejected(frame in arb_traced_frame(), tail in proptest::collection::vec(any::<u8>(), 1..16)) {
        // A tail after the extension shifts the remaining-length check off
        // the exact extension size, so the whole frame is refused.
        let mut body = encode_body(&frame);
        body.extend_from_slice(&tail);
        prop_assert!(decode_body(&body).is_err());
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any result is fine; reaching it without a panic is the property.
        let _ = decode_body(&bytes);
    }

    #[test]
    fn random_streams_never_panic_read_frame(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut cur = Cursor::new(bytes);
        let _ = read_frame(&mut cur, MAX_FRAME_LEN);
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_allocation(claim in MAX_FRAME_LEN + 1..u32::MAX) {
        // A stream claiming a huge frame must be refused after the 4-byte
        // prefix — without reading (or allocating) the claimed body. The
        // stream holds only the prefix, so any attempt to read the body
        // would surface as UnexpectedEof instead of TooLarge.
        let mut stream = Cursor::new(claim.to_le_bytes().to_vec());
        match read_frame(&mut stream, MAX_FRAME_LEN) {
            Err(WireError::TooLarge { claimed, cap }) => {
                assert_eq!(claimed, claim);
                assert_eq!(cap, MAX_FRAME_LEN);
                assert_eq!(stream.position(), 4, "nothing past the prefix may be consumed");
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}

/// Hand-crafted inflated counts: a chunk frame whose element count claims
/// more entries than the payload carries must be rejected by the
/// byte-budget check, not trusted as an allocation size.
#[test]
fn inflated_collection_counts_are_rejected() {
    let frame = Frame::ResultFlows {
        id: 1,
        flows: vec![(FlowId(3), 2.5)],
    };
    let mut body = encode_body(&frame);
    // Layout: type(1) id(8) count(4) entries... — inflate the count field.
    let count_at = 1 + 8;
    body[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));

    let frame = Frame::ResultGaps {
        id: 1,
        gaps: vec![CoverageGap { from: 0, to: 9 }],
    };
    let mut body = encode_body(&frame);
    body[count_at..count_at + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
    assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
}

/// A truncated length prefix (connection died mid-prefix) is an I/O EOF,
/// not a panic.
#[test]
fn truncated_length_prefix_is_eof() {
    for n in 0..4 {
        let mut cur = Cursor::new(vec![0u8; n]);
        match read_frame(&mut cur, MAX_FRAME_LEN) {
            Err(WireError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("expected EOF for {n}-byte prefix, got {other:?}"),
        }
    }
}
