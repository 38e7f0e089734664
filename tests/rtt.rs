//! End-to-end tests for the pq-rtt query path: a routed `RttQuery`
//! answer must be bit-identical to a single daemon serving the same
//! archives — with and without time-axis sharding — the `max_flows`
//! cap must be applied exactly once (at the answering hop), and the
//! planted slow flow must rank first in every answer.

use pq_bench::serving::Fleet;
use printqueue::core::params::TimeWindowConfig;
use printqueue::router::RouterConfig;
use printqueue::rtt::{RttReport, RttWorkload, RTT_SEGMENT_KIND};
use printqueue::serve::{Client, ServeConfig};
use printqueue::store::{SegmentPolicy, StoreWriter};

/// Spill reports into a `.pqa` archive as raw RTT segments (kind 1).
fn spill(reports: &[RttReport]) -> Vec<u8> {
    let mut w = StoreWriter::new(
        Vec::new(),
        TimeWindowConfig::new(6, 2, 12, 4),
        SegmentPolicy::default(),
    )
    .unwrap();
    for r in reports {
        w.push_raw(
            r.port,
            RTT_SEGMENT_KIND,
            r.sample_count(),
            r.min_t,
            r.max_t,
            &r.encode(),
        )
        .unwrap();
    }
    w.finish().unwrap()
}

/// A lone daemon over `bytes`, and two replicas of them behind a router
/// configured by `config`.
fn single_and_routed(bytes: &[u8], config: RouterConfig) -> (Fleet, Fleet) {
    let single = Fleet::replicas(bytes, 1, &ServeConfig::default());
    let routed = Fleet::replicas(bytes, 2, &ServeConfig::default()).route(config);
    (single, routed)
}

#[test]
fn routed_rtt_is_bit_identical_to_single_daemon() {
    let (reports, _) = RttWorkload {
        flows: 48,
        ports: 2,
        pkts_per_flow: 96,
        slow_rtt_ns: Some(8_000_000),
        seed: 11,
        ..RttWorkload::default()
    }
    .measure();
    assert_eq!(reports.len(), 2, "one report per observed port");
    let bytes = spill(&reports);

    let (single, fleet) = single_and_routed(
        &bytes,
        RouterConfig {
            replication: 2,
            ..RouterConfig::default()
        },
    );

    let mut direct = Client::connect(single.addr(0)).unwrap();
    let mut routed = Client::connect(fleet.router()).unwrap();
    let mid = (reports[0].min_t + reports[0].max_t) / 2;
    for port in [0u16, 1] {
        // max_flows 0 = untruncated; 4 forces the cap to drop flows.
        // The router scatters untruncated sub-queries and applies the
        // cap once after its merge, so the answers must stay equal.
        for (from, to, max_flows) in [
            (0, u64::MAX, 0u32),
            (0, u64::MAX, 4),
            (0, mid, 0),
            (mid, u64::MAX, 0),
        ] {
            let want = direct.rtt(port, from, to, max_flows).unwrap();
            let got = routed.rtt(port, from, to, max_flows).unwrap();
            assert_eq!(
                got.report.encode(),
                want.report.encode(),
                "port {port} [{from}, {to}] max_flows {max_flows}"
            );
            assert_eq!(got.degraded, want.degraded);
            if max_flows > 0 {
                assert!(got.report.flows.len() <= max_flows as usize);
            }
        }
    }

    // The planted 8 ms flow observes on port 0 (flow % ports) and must
    // rank slowest by mean in both answers.
    let ans = routed.rtt(0, 0, u64::MAX, 0).unwrap();
    let slowest = ans
        .report
        .flows
        .iter()
        .max_by_key(|f| (f.hist.sum / f.hist.count, f.flow))
        .expect("port 0 measured flows");
    assert_eq!(slowest.flow, 0, "planted slow flow ranks first");
    assert!(slowest.hist.count >= 8, "slow flow has real samples");

    drop(direct);
    drop(routed);
    fleet.shutdown();
    single.shutdown();
}

#[test]
fn epoch_sliced_routed_rtt_merges_each_report_exactly_once() {
    const EPOCH_NS: u64 = 1_000_000;
    let mut early = RttWorkload {
        flows: 32,
        ports: 1,
        pkts_per_flow: 96,
        seed: 1,
        ..RttWorkload::default()
    }
    .measure()
    .0
    .remove(0);
    let mut late = RttWorkload {
        flows: 32,
        ports: 1,
        pkts_per_flow: 96,
        seed: 2,
        ..RttWorkload::default()
    }
    .measure()
    .0
    .remove(0);
    // Re-key the two reports into distinct epochs: one in epoch 0, one
    // in epoch 2, with the late report spanning an epoch boundary —
    // exactly the shape that would double-count under span-intersection
    // selection when the router slices the time axis.
    let early_span = early.max_t - early.min_t;
    early.min_t = 100_000;
    early.max_t = early.min_t + early_span;
    let late_span = late.max_t - late.min_t;
    late.min_t = 2_700_000;
    late.max_t = late.min_t + late_span.max(EPOCH_NS);
    let bytes = spill(&[early.clone(), late.clone()]);

    let (single, fleet) = single_and_routed(
        &bytes,
        RouterConfig {
            replication: 2,
            epoch_ns: EPOCH_NS,
            ..RouterConfig::default()
        },
    );

    let mut direct = Client::connect(single.addr(0)).unwrap();
    let mut routed = Client::connect(fleet.router()).unwrap();
    // [0, 4 ms) covers four epoch slices and both reports; the narrower
    // ranges select exactly one report each by its start time.
    for (from, to) in [
        (0, 4 * EPOCH_NS - 1),
        (0, EPOCH_NS - 1),
        (2 * EPOCH_NS, 4 * EPOCH_NS - 1),
    ] {
        let want = direct.rtt(0, from, to, 0).unwrap();
        let got = routed.rtt(0, from, to, 0).unwrap();
        assert_eq!(
            got.report.encode(),
            want.report.encode(),
            "[{from}, {to}] sliced into epochs of {EPOCH_NS} ns"
        );
        assert_eq!(got.degraded, want.degraded);
    }

    // Exactly-once proof: the full-range routed answer carries both
    // reports' samples once, and each narrow range carries one report.
    let full = routed.rtt(0, 0, 4 * EPOCH_NS - 1, 0).unwrap();
    assert_eq!(
        full.report.sample_count(),
        early.sample_count() + late.sample_count()
    );
    let first = routed.rtt(0, 0, EPOCH_NS - 1, 0).unwrap();
    assert_eq!(first.report.sample_count(), early.sample_count());

    drop(direct);
    drop(routed);
    fleet.shutdown();
    single.shutdown();
}
