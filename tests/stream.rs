//! End-to-end tests for standing continuous queries: windowed results
//! pushed by the daemon must be bit-identical to an offline one-shot
//! `query_time_windows` over the same closed interval (single-node and
//! routed across three shards), per-subscription state must stay under
//! its cap with evictions accounted under shuffled/late arrival. A cancel
//! pipelined behind its registration loses no window, a stopping router
//! ends a routed subscription with a final frame, and a sampled
//! registration is traced.

use pq_bench::serving::{drive_program, Fleet, PORTS};
use printqueue::core::control::{AnalysisProgram, Checkpoint};
use printqueue::core::snapshot::QueryInterval;
use printqueue::packet::FlowId;
use printqueue::router::RouterConfig;
use printqueue::serve::wire::{self, Frame};
use printqueue::serve::{Client, ServeConfig};
use printqueue::stream::{parse, DepthAgg, Record, Standing, TopKSummary};
use printqueue::telemetry::{names, new_trace_id, Telemetry, TraceContext};

use std::collections::BTreeSet;
use std::net::TcpStream;
use std::sync::Arc;

/// A live daemon over the two-port drive for `until` ns: queue-monitor
/// activity gives its checkpoints nonzero stack depths, and the
/// silence window a coverage gap.
fn serve_live(until: u64) -> (Arc<AnalysisProgram>, Fleet) {
    let ap = Arc::new(drive_program(None, until, 0));
    let fleet = Fleet::live(&[Arc::clone(&ap)], &ServeConfig::default());
    (ap, fleet)
}

/// The depth a checkpoint contributes to the stream — the same
/// projection the evaluator applies.
fn depth_of(cp: &Checkpoint) -> u64 {
    cp.queue_monitor().map(|q| u64::from(q.top)).unwrap_or(0)
}

/// Fold one program's checkpoints inside `[from, to)` the way the
/// evaluator does (cursor order), for an order-faithful expected agg.
fn window_agg(ap: &AnalysisProgram, port: u16, from: u64, to: u64) -> DepthAgg {
    let mut agg = DepthAgg::default();
    for cp in ap.checkpoints(port) {
        if cp.frozen_at >= from && cp.frozen_at < to {
            agg.offer(cp.frozen_at, depth_of(cp));
        }
    }
    agg
}

fn metric_total(plane: &Telemetry, name: &str) -> u64 {
    plane
        .snapshot()
        .iter()
        .filter(|(k, _)| k.name == name)
        .map(|(_, v)| match v {
            printqueue::telemetry::MetricValue::Counter(n)
            | printqueue::telemetry::MetricValue::Gauge(n) => *n,
            printqueue::telemetry::MetricValue::Histogram(h) => h.count,
        })
        .sum()
}

#[test]
fn standing_results_match_offline_one_shot_bit_for_bit() {
    let (ap, fleet) = serve_live(2_000);
    let mut client = Client::connect(fleet.addr(0)).unwrap();

    let ack = client
        .standing("window tumbling 500ns", 512, 0, true)
        .unwrap();
    assert_eq!(ack.cap, 512);
    assert_eq!(
        ack.query,
        parse("window tumbling 500ns").unwrap().to_string()
    );

    let mut windows = Vec::new();
    let mut prev_watermark = 0;
    loop {
        let r = client.next_stream_result(ack.sub).unwrap();
        assert!(
            r.watermark_ns >= prev_watermark,
            "watermark must be monotone ({} then {})",
            prev_watermark,
            r.watermark_ns
        );
        prev_watermark = r.watermark_ns;
        let last = r.last;
        if r.to != 0 {
            windows.push(r);
        }
        if last {
            break;
        }
    }

    // Every (port, window) pair with at least one checkpoint must close.
    let mut expected_keys = std::collections::BTreeSet::new();
    for &port in &PORTS {
        for cp in ap.checkpoints(port) {
            let from = cp.frozen_at - cp.frozen_at % 500;
            expected_keys.insert((port, from, from + 500));
        }
    }
    let got_keys: std::collections::BTreeSet<(u16, u64, u64)> =
        windows.iter().map(|r| (r.port, r.from, r.to)).collect();
    assert_eq!(got_keys, expected_keys);

    for r in &windows {
        assert!(r.fired, "no predicate: every close fires");

        // Depth statistics equal an order-faithful offline fold.
        let want = window_agg(&ap, r.port, r.from, r.to);
        assert_eq!(
            (r.max, r.min, r.sum, r.count),
            (want.max, want.min, want.sum, want.count)
        );
        assert_eq!((r.last_t, r.last_depth), (want.last_t, want.last_depth));

        // Flow estimates are the offline one-shot over the same closed
        // interval, run through the same capped summary — bit for bit.
        let answer = ap.query_time_windows(r.port, QueryInterval::new(r.from, r.to - 1));
        let mut topk = TopKSummary::new(512);
        for (flow, est) in answer.estimates.ranked() {
            topk.offer(flow.0, est);
        }
        assert_eq!(topk.evictions, 0, "cap 512 must hold the full answer");
        let want_flows: Vec<(FlowId, f64)> = topk
            .ranked(None)
            .into_iter()
            .map(|(f, c)| (FlowId(f), c))
            .collect();
        assert_eq!(r.flows.len(), want_flows.len());
        for ((gf, gc), (wf, wc)) in r.flows.iter().zip(&want_flows) {
            assert_eq!(gf, wf);
            assert_eq!(gc.to_bits(), wc.to_bits(), "flow {} estimate drifted", wf.0);
        }
        assert_eq!(r.gaps, answer.gaps);
        // No forced closes and no evictions here, so the degraded flag
        // is exactly the one-shot's coverage verdict.
        assert_eq!(r.degraded, answer.degraded);
    }

    assert!(metric_total(fleet.plane(0), names::STREAM_WINDOWS_CLOSED) >= windows.len() as u64);
    assert!(metric_total(fleet.plane(0), names::STREAM_RESULTS) >= windows.len() as u64);
    fleet.shutdown();
}

#[test]
fn never_true_predicate_closes_windows_but_fires_nothing() {
    let (_ap, fleet) = serve_live(2_000);
    let mut client = Client::connect(fleet.addr(0)).unwrap();

    let ack = client
        .standing(
            "window tumbling 500ns where max(depth) > 1000000",
            512,
            0,
            true,
        )
        .unwrap();
    let mut closed = 0;
    loop {
        let r = client.next_stream_result(ack.sub).unwrap();
        if r.to != 0 {
            closed += 1;
            assert!(!r.fired, "predicate can never hold");
            assert!(r.flows.is_empty(), "non-fired closes carry no flows");
        }
        if r.last {
            break;
        }
    }
    assert!(closed > 0, "windows still close under a false predicate");
    fleet.shutdown();
}

#[test]
fn tight_cap_surfaces_evictions_as_degraded() {
    let (_ap, fleet) = serve_live(2_000);
    let mut client = Client::connect(fleet.addr(0)).unwrap();

    // Port 0 sees seven distinct flows per window; a cap of 2 cannot
    // hold them, so the answer must carry the eviction caveat.
    let ack = client
        .standing("port 0 window tumbling 2000ns topk 2", 2, 0, true)
        .unwrap();
    assert_eq!(ack.cap, 2);
    let mut saw_evictions = false;
    loop {
        let r = client.next_stream_result(ack.sub).unwrap();
        if r.to != 0 && r.fired {
            assert!(r.flows.len() <= 2);
            if r.evictions > 0 {
                assert!(r.degraded, "evictions must degrade the answer");
                assert!(r.evicted_weight > 0.0);
                saw_evictions = true;
            }
        }
        if r.last {
            break;
        }
    }
    assert!(saw_evictions, "seven flows through a cap of 2 must evict");
    fleet.shutdown();
}

#[test]
fn cancel_ends_the_stream_with_a_final_frame() {
    let (_ap, fleet) = serve_live(2_000);
    let mut client = Client::connect(fleet.addr(0)).unwrap();

    let ack = client
        .standing("window tumbling 500ns", 512, 0, false)
        .unwrap();
    // Collect at least one result, then cancel; the client drains the
    // stream up to the final `last` frame.
    let first = client.next_stream_result(ack.sub).unwrap();
    assert!(!first.last);
    client.cancel_standing(ack.sub).unwrap();
    fleet.shutdown();
}

#[test]
fn bounded_state_under_shuffled_and_late_arrival() {
    let query = parse("port 0 window tumbling 100ns lateness 50ns").unwrap();
    let max_open = 4;
    let mut standing = Standing::new(query, max_open);

    // A deterministic shuffle of 0..1999 (3 is coprime with 2000), so
    // records arrive far out of order without any RNG.
    let mut late = 0u64;
    for i in 0..2_000u64 {
        let t = (i * 3) % 2_000;
        let accepted = standing.push(Record {
            t_ns: t,
            port: 0,
            depth: t % 20,
        });
        if !accepted {
            late += 1;
        }
        assert!(
            standing.open_windows() <= max_open,
            "open windows {} exceeded cap {max_open}",
            standing.open_windows()
        );
    }
    standing.seal();
    let closes = standing.drain();
    assert_eq!(standing.late_records, late);
    let forced = closes.iter().filter(|c| c.forced).count() as u64;
    assert_eq!(standing.forced_closes, forced);
    assert!(
        forced > 0 || late > 0,
        "a shuffled feed through 4 open windows must force closes or drop late records"
    );
    // Conservation: every accepted record is aggregated in some close.
    let aggregated: u64 = closes.iter().map(|c| c.agg.count).sum();
    assert_eq!(aggregated, standing.records);

    // Space-saving summary: the cap holds and every displaced slot is
    // accounted.
    let mut topk = TopKSummary::new(8);
    for flow in 0..100u32 {
        topk.offer(flow, f64::from(flow) + 1.0);
    }
    assert!(topk.len() <= 8);
    assert_eq!(topk.evictions, 100 - 8);
    assert!(topk.evicted_weight > 0.0);
}

#[test]
fn routed_standing_matches_per_shard_merge_bit_for_bit() {
    // Three live shards, each owning a disjoint flow population.
    let aps: Vec<_> = (0..3)
        .map(|i| Arc::new(drive_program(None, 2_000, i * 1_000)))
        .collect();
    let fleet = Fleet::live(&aps, &ServeConfig::default()).route(RouterConfig::default());
    let mut client = Client::connect(fleet.router()).unwrap();

    let ack = client
        .standing(
            "port 0 window tumbling 500ns where count(depth) > 0 topk 4",
            512,
            0,
            true,
        )
        .unwrap();
    let mut windows = Vec::new();
    loop {
        let r = client.next_stream_result(ack.sub).unwrap();
        let last = r.last;
        if r.to != 0 {
            windows.push(r);
        }
        if last {
            break;
        }
    }
    assert!(!windows.is_empty());

    for r in &windows {
        assert_eq!(r.port, 0);
        // Merged depth statistics: per-shard folds merged in backend
        // order, exactly as the router does.
        let mut want_agg = DepthAgg::default();
        for ap in &aps {
            want_agg.merge(&window_agg(ap, 0, r.from, r.to));
        }
        assert_eq!(
            (r.max, r.min, r.sum, r.count),
            (want_agg.max, want_agg.min, want_agg.sum, want_agg.count)
        );
        assert!(r.fired, "count > 0 holds for every closed window");

        // Merged flows: each shard's offline one-shot, capped at the
        // query's top-k, merged in backend order — bit for bit.
        let mut summary = TopKSummary::new(4);
        for ap in &aps {
            let answer = ap.query_time_windows(0, QueryInterval::new(r.from, r.to - 1));
            let mut part = TopKSummary::new(4);
            for (flow, est) in answer.estimates.ranked() {
                part.offer(flow.0, est);
            }
            summary.merge(&part);
        }
        let want_flows: Vec<(FlowId, f64)> = summary
            .ranked(Some(4))
            .into_iter()
            .map(|(f, c)| (FlowId(f), c))
            .collect();
        assert_eq!(r.flows.len(), want_flows.len());
        for ((gf, gc), (wf, wc)) in r.flows.iter().zip(&want_flows) {
            assert_eq!(gf, wf);
            assert_eq!(gc.to_bits(), wc.to_bits(), "flow {} estimate drifted", wf.0);
        }
    }

    fleet.shutdown();
}

/// Every `(port, window)` of a `size`-ns tumbling query over `ports` that
/// holds at least one checkpoint of some program: the windows a sealed
/// subscription closes.
fn closing_windows(aps: &[Arc<AnalysisProgram>], ports: &[u16], size: u64) -> BTreeSet<(u16, u64)> {
    let mut keys = BTreeSet::new();
    for ap in aps {
        for &port in ports {
            for cp in ap.checkpoints(port) {
                keys.insert((port, cp.frozen_at - cp.frozen_at % size));
            }
        }
    }
    keys
}

#[test]
fn a_cancel_pipelined_behind_its_registration_loses_no_window() {
    let (ap, fleet) = serve_live(2_000);
    // Raw frames: the cancel goes out right behind the registration,
    // before any result is read.
    let mut stream = TcpStream::connect(fleet.addr(0)).unwrap();
    let hello = Frame::Hello {
        version: wire::PROTOCOL_VERSION,
        max_frame: wire::MAX_FRAME_LEN,
    };
    wire::write_frame(&mut stream, &hello).unwrap();
    let ack = wire::read_frame(&mut stream, wire::MAX_FRAME_LEN).unwrap();
    assert!(matches!(ack, Frame::HelloAck { .. }), "{ack:?}");
    let register = Frame::StandingQueryReq {
        id: 1,
        cap: 512,
        max_windows: 0,
        stop_after_seal: false,
        query: "window tumbling 500ns".to_string(),
        trace: None,
    };
    wire::write_frame(&mut stream, &register).unwrap();
    wire::write_frame(&mut stream, &Frame::StandingQueryCancel { id: 2, sub: 1 }).unwrap();

    let mut windows = 0;
    loop {
        match wire::read_frame(&mut stream, wire::MAX_FRAME_LEN).unwrap() {
            Frame::StandingQueryAck { id: 1, .. } => {}
            Frame::StandingQueryResult { id: 1, result } => {
                if result.to != 0 {
                    windows += 1;
                }
                if result.last {
                    break;
                }
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(windows, closing_windows(&[ap], &PORTS, 500).len());
    fleet.shutdown();
}

#[test]
fn a_stopping_router_ends_routed_subscriptions_with_a_final_frame() {
    let aps: Vec<_> = (0..2)
        .map(|i| Arc::new(drive_program(None, 2_000, i * 1_000)))
        .collect();
    let fleet = Fleet::live(&aps, &ServeConfig::default()).route(RouterConfig::default());
    let mut client = Client::connect(fleet.router()).unwrap();
    let ack = client
        .standing("port 0 window tumbling 500ns", 512, 0, false)
        .unwrap();
    for _ in 0..closing_windows(&aps, &[0], 500).len() {
        let r = client.next_stream_result(ack.sub).unwrap();
        assert!(r.to != 0 && !r.last, "{r:?}");
    }

    Client::connect(fleet.router())
        .unwrap()
        .shutdown_server()
        .unwrap();
    let end = client
        .next_stream_result(ack.sub)
        .expect("a stopping router sends the final frame");
    assert!(end.last && end.to == 0, "{end:?}");
    fleet.shutdown();
}

#[test]
fn a_sampled_registration_is_traced_and_only_open_subscriptions_count() {
    let (ap, fleet) = serve_live(2_000);
    fleet.plane(0).traces().set_enabled(true);
    let mut client = Client::connect(fleet.addr(0)).unwrap();
    let tid = new_trace_id();
    client.set_trace_context(Some(TraceContext::root(tid, true)));
    let ack = client
        .standing("window tumbling 500ns", 512, 0, false)
        .unwrap();
    client.set_trace_context(None);
    let windows = closing_windows(&[ap], &PORTS, 500).len();
    for _ in 0..windows {
        assert!(client.next_stream_result(ack.sub).unwrap().to != 0);
    }

    // One `window_close` span over every closed window and one `emit`
    // span over the frames that carried them.
    let trace = client
        .trace_dump(32, false)
        .unwrap()
        .into_iter()
        .find(|t| t.trace_id == tid)
        .expect("a sampled registration commits its trace");
    let tag = |name| {
        let span = trace.spans.iter().find(|s| s.name == name);
        span.map(|s| s.tag.clone())
    };
    assert_eq!(tag(names::SPAN_WINDOW_CLOSE), Some(windows.to_string()));
    assert_eq!(tag(names::SPAN_EMIT), Some(windows.to_string()));

    // The stream has not ended, so the subscription stays open until
    // its cancel.
    let open = || metric_total(fleet.plane(0), names::STREAM_SUBSCRIPTIONS);
    assert_eq!(open(), 1);
    client.cancel_standing(ack.sub).unwrap();
    assert_eq!(open(), 0);
    fleet.shutdown();
}
