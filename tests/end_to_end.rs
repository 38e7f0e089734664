//! Integration tests spanning every crate: trace generation → switch →
//! PrintQueue → queries → accuracy against ground truth.

use printqueue::core::culprits::GroundTruth;
use printqueue::core::metrics::{self, precision_recall};
use printqueue::prelude::*;
use printqueue::trace::scenario;

/// Run a workload end-to-end and return (PrintQueue, ground truth oracle).
fn run_workload(
    kind: WorkloadKind,
    duration: Nanos,
    tw: TimeWindowConfig,
    d: Nanos,
    seed: u64,
) -> (PrintQueue, GroundTruth) {
    let trace = Workload::paper_testbed(kind, duration, seed).generate();
    let mut printqueue = PrintQueue::new(PrintQueueConfig::single_port(tw, d));
    let mut sink = TelemetrySink::new();
    let mut sw = Switch::new(SwitchConfig::single_port(10.0, 32_768));
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut printqueue, &mut sink];
        sw.run(
            trace.arrivals.iter().copied(),
            &mut hooks,
            tw.set_period().min(5_000_000),
        );
    }
    (printqueue, GroundTruth::new(&sink.records, 80))
}

#[test]
fn uw_direct_culprit_queries_beat_random_guessing() {
    let tw = TimeWindowConfig::UW;
    let (pq, truth) = run_workload(WorkloadKind::Uw, 20_000_000, tw, 110, 5);

    // Sample delayed packets and check aggregate accuracy.
    let victims: Vec<_> = truth
        .records()
        .iter()
        .filter(|r| r.meta.enq_qdepth > 1_000)
        .step_by(997)
        .take(40)
        .copied()
        .collect();
    assert!(
        victims.len() >= 10,
        "workload produced too little congestion"
    );

    let mut precisions = Vec::new();
    let mut recalls = Vec::new();
    for v in &victims {
        let interval = QueryInterval::new(v.meta.enq_timestamp, v.deq_timestamp());
        let est = pq.analysis().query_time_windows(0, interval);
        let gt =
            metrics::to_float_counts(&truth.direct_culprits(interval.from, interval.to, v.seqno));
        let pr = precision_recall(&est.counts, &gt);
        precisions.push(pr.precision);
        recalls.push(pr.recall);
    }
    let mp = metrics::mean(&precisions);
    let mr = metrics::mean(&recalls);
    assert!(mp > 0.8, "mean precision {mp}");
    assert!(mr > 0.4, "mean recall {mr}");
}

#[test]
fn ws_queries_are_more_accurate_than_uw() {
    // §7.1: UW accuracy is lower because it tracks ~10x more packets with
    // a bigger compression factor.
    let run_mean_recall = |kind: WorkloadKind, tw: TimeWindowConfig, d: Nanos| -> f64 {
        let (pq, truth) = run_workload(kind, 20_000_000, tw, d, 9);
        let mut recalls = Vec::new();
        for v in truth
            .records()
            .iter()
            .filter(|r| r.meta.enq_qdepth > 1_000)
            .step_by(499)
            .take(30)
        {
            let interval = QueryInterval::new(v.meta.enq_timestamp, v.deq_timestamp());
            let est = pq.analysis().query_time_windows(0, interval);
            let gt = metrics::to_float_counts(&truth.direct_culprits(
                interval.from,
                interval.to,
                v.seqno,
            ));
            recalls.push(precision_recall(&est.counts, &gt).recall);
        }
        metrics::mean(&recalls)
    };
    let uw = run_mean_recall(WorkloadKind::Uw, TimeWindowConfig::UW, 110);
    let ws = run_mean_recall(WorkloadKind::Ws, TimeWindowConfig::WS_DM, 1200);
    assert!(
        ws > uw - 0.05,
        "WS recall ({ws:.3}) should not trail UW ({uw:.3}) materially"
    );
}

#[test]
fn case_study_original_culprits_implicate_the_burst() {
    // The §7.2 case study end-to-end: the queue monitor must give the
    // burst a share of the original culprits comparable to the background,
    // even long after the burst left the network.
    let cs = scenario::case_study_fig16(60_000_000, 2);
    let tw = TimeWindowConfig::WS_DM;
    let mut config = PrintQueueConfig::single_port(tw, 200);
    config.control.poll_period = 2_000_000;
    let mut printqueue = PrintQueue::new(config);
    let mut sink = TelemetrySink::new();
    let mut sw = Switch::new(SwitchConfig::single_port(10.0, 40_000));
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut printqueue, &mut sink];
        sw.run(cs.trace.arrivals.iter().copied(), &mut hooks, 2_000_000);
    }
    let truth = GroundTruth::new(&sink.records, 80);
    let victim = truth
        .records()
        .iter()
        .filter(|r| r.flow == cs.roles.new_tcp)
        .max_by_key(|r| r.meta.deq_timedelta)
        .copied()
        .expect("new TCP transmitted");
    assert!(
        victim.meta.deq_timedelta > 500_000,
        "victim should experience heavy leftover queueing"
    );

    // Direct culprits (ground truth): zero burst packets.
    let report = truth.report(&victim);
    assert_eq!(
        report.direct.get(&cs.roles.burst).copied().unwrap_or(0),
        0,
        "burst packets left long ago — they cannot be direct culprits"
    );

    // Original culprits from the queue monitor: burst share comparable to
    // (here: at least half of) the background share.
    let qm = printqueue
        .analysis()
        .query_queue_monitor(0, victim.deq_timestamp())
        .expect("queue monitor checkpoint");
    let counts = qm.culprit_counts();
    let burst = counts.get(&cs.roles.burst).copied().unwrap_or(0) as f64;
    let background = counts.get(&cs.roles.background).copied().unwrap_or(0) as f64;
    assert!(
        burst > 0.5 * background && background > 0.0,
        "burst {burst} vs background {background}: the monitor failed to \
         implicate the original cause"
    );
}

#[test]
fn dataplane_triggers_capture_fresh_state() {
    let tw = TimeWindowConfig::UW;
    let trace = Workload::paper_testbed(WorkloadKind::Uw, 20_000_000, 7).generate();
    let config = PrintQueueConfig::single_port(tw, 110).with_trigger(DataPlaneTrigger {
        min_deq_timedelta: u32::MAX,
        min_enq_qdepth: 2_000,
        cooldown: 2_000_000,
    });
    let mut printqueue = PrintQueue::new(config);
    let mut sink = TelemetrySink::new();
    let mut sw = Switch::new(SwitchConfig::single_port(10.0, 32_768));
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut printqueue, &mut sink];
        sw.run(trace.arrivals.iter().copied(), &mut hooks, tw.set_period());
    }
    assert!(
        !printqueue.triggers_fired.is_empty(),
        "congestion must fire the trigger"
    );
    let truth = GroundTruth::new(&sink.records, 80);
    // Every trigger's special checkpoint answers its own interval well.
    let mut recalls = Vec::new();
    for (i, (_p, interval, _at, _d)) in printqueue.triggers_fired.iter().enumerate().take(5) {
        let est = printqueue
            .analysis()
            .query_special(0, Some(i))
            .expect("special checkpoint");
        let victim = truth
            .records()
            .iter()
            .find(|r| r.meta.enq_timestamp == interval.from && r.deq_timestamp() == interval.to)
            .expect("trigger packet recorded");
        let gt = metrics::to_float_counts(&truth.direct_culprits(
            interval.from,
            interval.to,
            victim.seqno,
        ));
        recalls.push(precision_recall(&est.counts, &gt).recall);
    }
    let mr = metrics::mean(&recalls);
    assert!(
        mr > 0.9,
        "data-plane queries should be near-exact, got {mr}"
    );
}

/// Two-hop fabric with one PrintQueue per switch: hop 2 (10 Gbps) is the
/// bottleneck. Diagnosing each hop against its own switch's checkpoints
/// must put the victim's delay there and name the competing flow.
#[test]
fn path_diagnosis_finds_the_dominant_hop() {
    use printqueue::core::diagnosis::diagnose;
    use printqueue::switch::topology::DepartureTap;
    let tw = TimeWindowConfig::new(10, 1, 10, 3);
    let mut config = PrintQueueConfig::single_port(tw, 1200);
    config.control.poll_period = 500_000;
    let (mut pq1, mut pq2) = (PrintQueue::new(config.clone()), PrintQueue::new(config));

    // Victim flow 0 and a heavy competitor flow 1 share both hops.
    let mut arrivals = Vec::new();
    for i in 0..2_000u64 {
        arrivals.push(Arrival::new(SimPacket::new(FlowId(1), 1500, i * 600), 0));
        if i % 20 == 0 {
            arrivals.push(Arrival::new(
                SimPacket::new(FlowId(0), 1500, i * 600 + 1),
                0,
            ));
        }
    }
    arrivals.sort_by_key(|a| a.pkt.arrival);
    let mut tap = DepartureTap::new(0, 0, 2_000);
    let (mut sink1, mut sink2) = (TelemetrySink::new(), TelemetrySink::new());
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut tap, &mut pq1, &mut sink1];
        Switch::new(SwitchConfig::single_port(40.0, 32_768)).run(arrivals, &mut hooks, 500_000);
    }
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut pq2, &mut sink2];
        Switch::new(SwitchConfig::single_port(10.0, 32_768)).run(
            tap.into_arrivals(),
            &mut hooks,
            500_000,
        );
    }

    // The victim's most-delayed packet at each hop.
    let victim = |sink: &TelemetrySink| {
        sink.records
            .iter()
            .filter(|r| r.flow == FlowId(0))
            .max_by_key(|r| r.meta.deq_timedelta)
            .copied()
            .unwrap()
    };
    let (v1, v2) = (victim(&sink1), victim(&sink2));
    let (d1, d2) = (v1.meta.deq_timedelta, v2.meta.deq_timedelta);
    assert!(d2 > 9 * d1, "hop 2 is the bottleneck: {d1} vs {d2} ns");
    let hop2 = diagnose(
        pq2.analysis(),
        0,
        v2.meta.enq_timestamp,
        v2.deq_timestamp(),
        None,
    );
    assert_eq!(hop2.top_direct(1)[0].0, FlowId(1));
    let hop1 = diagnose(
        pq1.analysis(),
        0,
        v1.meta.enq_timestamp,
        v1.deq_timestamp(),
        None,
    );
    assert!(hop1.interval.len() < hop2.interval.len());
}
