//! Fault-injected control plane: fallible freeze-and-reads, retry/backoff,
//! coverage gaps, and degraded-confidence queries.
//!
//! The analysis program's liveness contract (§6.2: read every register set
//! at least once per t_set) is broken here on purpose — reads fail, take
//! time, or lose their checkpoints — and the control plane must degrade
//! loudly (gaps recorded, answers flagged) instead of silently.

use printqueue::core::faults::StallWindows;
use printqueue::prelude::*;

/// Small windows so one run covers many set periods: t_set ≈ 114.7 µs.
fn small_tw() -> TimeWindowConfig {
    TimeWindowConfig::new(6, 1, 8, 3)
}

/// A steady 10 ms stream keeping the queue busy across ~87 poll periods.
fn steady_arrivals() -> Vec<Arrival> {
    (0..20_000u64)
        .map(|i| Arrival::new(SimPacket::new(FlowId((i % 11) as u32), 800, i * 500), 0))
        .collect()
}

fn run_pq(config: PrintQueueConfig, arrivals: Vec<Arrival>, tick: Nanos) -> (PrintQueue, Nanos) {
    let mut pq = PrintQueue::new(config);
    let mut sw = Switch::new(SwitchConfig::single_port(10.0, 32_768));
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut pq];
        sw.run(arrivals, &mut hooks, tick);
    }
    let now = sw.now();
    (pq, now)
}

fn frozen_ats(pq: &PrintQueue) -> Vec<Nanos> {
    pq.analysis()
        .checkpoints(0)
        .iter()
        .map(|c| c.frozen_at)
        .collect()
}

#[test]
fn benign_fault_config_is_behaviorally_identical() {
    // A wired-up injector whose profile can never fire must reproduce the
    // no-injector run exactly: same checkpoints, same answers, no health
    // noise.
    let tw = small_tw();
    let tick = tw.set_period();
    let plain = PrintQueueConfig::single_port(tw, 640);
    let benign = PrintQueueConfig::single_port(tw, 640).with_faults(FaultConfig::new(99));
    let (pq_a, end_a) = run_pq(plain, steady_arrivals(), tick);
    let (pq_b, end_b) = run_pq(benign, steady_arrivals(), tick);

    assert_eq!(end_a, end_b);
    assert_eq!(frozen_ats(&pq_a), frozen_ats(&pq_b));
    assert_eq!(pq_a.analysis().health(), pq_b.analysis().health());
    assert!(pq_a.analysis().coverage_gaps(0).is_empty());
    assert!(pq_b.analysis().coverage_gaps(0).is_empty());

    let interval = QueryInterval::new(0, end_a);
    let est_a = pq_a.analysis().query_time_windows(0, interval);
    let est_b = pq_b.analysis().query_time_windows(0, interval);
    assert_eq!(est_a.counts, est_b.counts);
    assert!(!est_a.degraded && !est_b.degraded);
}

#[test]
fn read_failures_are_retried_with_backoff() {
    // Seeded 20% read-failure rate: failures must show up in the health
    // counters, retries must fire, and enough reads must still land that
    // the checkpoint history stays usable.
    let tw = small_tw();
    let faults = FaultConfig::new(7).with_base(FaultProfile::read_failures(0.2));
    let config = PrintQueueConfig::single_port(tw, 640).with_faults(faults);
    let (pq, _end) = run_pq(config, steady_arrivals(), tw.set_period());

    let health = pq.analysis().health();
    assert!(
        health.polls_failed > 0,
        "20% of reads should fail: {health:?}"
    );
    assert!(
        health.polls_retried > 0,
        "failures must be retried: {health:?}"
    );
    assert!(
        health.polls_attempted > health.checkpoints_stored,
        "retries mean more attempts than stores: {health:?}"
    );
    assert!(
        health.checkpoints_stored > 20,
        "most polls must still succeed: {health:?}"
    );
    assert!((health.poll_failure_rate() - 0.2).abs() < 0.12);
}

#[test]
fn total_read_failure_hits_the_backoff_ceiling() {
    // Every read fails: backoff must grow to its cap (not unbounded, not
    // constant), no checkpoint ever lands, and queries degrade loudly
    // instead of answering from nothing.
    let tw = small_tw();
    let faults = FaultConfig::new(3).with_base(FaultProfile::read_failures(1.0));
    let config = PrintQueueConfig::single_port(tw, 640).with_faults(faults);
    let (pq, end) = run_pq(config, steady_arrivals(), tw.set_period());

    let health = pq.analysis().health();
    assert_eq!(health.checkpoints_stored, 0);
    assert!(health.polls_failed > 10);
    assert!(
        health.backoff_ceiling_hits > 0,
        "persistent failure must reach the backoff cap: {health:?}"
    );
    let est = pq
        .analysis()
        .query_time_windows(0, QueryInterval::new(0, end));
    assert!(
        est.degraded,
        "answer from zero checkpoints must be degraded"
    );
    assert!(!est.gaps.is_empty());
}

#[test]
fn dropped_checkpoints_record_coverage_gaps_and_degrade_queries() {
    // Lost checkpoints stretch the inter-checkpoint distance past t_set;
    // the control plane must record the gap and flag any query that
    // overlaps it.
    let tw = small_tw();
    let profile = FaultProfile {
        drop_checkpoint_prob: 0.6,
        ..FaultProfile::none()
    };
    let config =
        PrintQueueConfig::single_port(tw, 640).with_faults(FaultConfig::new(21).with_base(profile));
    let (pq, _end) = run_pq(config, steady_arrivals(), tw.set_period());

    let health = pq.analysis().health();
    assert!(health.checkpoints_dropped > 0, "{health:?}");
    assert!(health.coverage_gaps > 0, "{health:?}");
    assert!(health.gap_ns > 0, "{health:?}");
    assert!(!health.is_healthy());

    let gaps = pq.analysis().coverage_gaps(0);
    assert!(!gaps.is_empty());
    let gap = gaps[0];
    assert!(gap.to - gap.from > tw.set_period(), "gap longer than t_set");

    // A query spanning the gap is flagged; the gap interval is attached.
    let est = pq
        .analysis()
        .query_time_windows(0, QueryInterval::new(gap.from, gap.to));
    assert!(est.degraded);
    assert!(est
        .gaps
        .iter()
        .any(|g| g.overlaps(QueryInterval::new(gap.from, gap.to))));
}

#[test]
fn queue_monitor_answers_carry_staleness_and_degrade() {
    let tw = small_tw();
    let config = PrintQueueConfig::single_port(tw, 640);
    let (pq, end) = run_pq(config, steady_arrivals(), tw.set_period());

    // A query near a checkpoint is fresh.
    let last = *frozen_ats(&pq).last().expect("checkpoints exist");
    let fresh = pq.analysis().query_queue_monitor(0, last).expect("answer");
    assert_eq!(fresh.staleness, 0);
    assert!(!fresh.degraded);

    // A query far past the last freeze is stale beyond t_set → degraded.
    let stale = pq
        .analysis()
        .query_queue_monitor(0, end + 20 * tw.set_period())
        .expect("answer");
    assert!(stale.staleness > tw.set_period());
    assert!(stale.degraded);
}

#[test]
fn drop_storm_and_trigger_flood_under_faults_never_panic() {
    // The robustness suite's worst cases, now with every fault class on at
    // once: reads fail, take time, stall periodically, and lose
    // checkpoints — while a zero-cooldown trigger floods on-demand reads
    // and the tiny buffer tail-drops most packets.
    let tw = small_tw();
    let profile = FaultProfile {
        read_failure_prob: 0.3,
        read_latency: LatencyModel::Uniform(1_000, 50_000),
        drop_checkpoint_prob: 0.2,
        stall: Some(StallWindows {
            period: 500_000,
            duration: 150_000,
        }),
    };
    let mut config = PrintQueueConfig::single_port(tw, 640)
        .with_faults(FaultConfig::new(13).with_base(profile))
        .with_trigger(DataPlaneTrigger {
            min_deq_timedelta: 1,
            min_enq_qdepth: 1,
            cooldown: 0,
        });
    config.control.max_snapshots = 64;
    config.control.poll_period = tw.set_period();

    let mut pq = PrintQueue::new(config);
    let mut sw = Switch::new(SwitchConfig::single_port(10.0, 100)); // drop storm
    let arrivals: Vec<Arrival> = (0..20_000u64)
        .map(|i| Arrival::new(SimPacket::new(FlowId((i % 7) as u32), 1500, i * 300), 0))
        .collect();
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut pq];
        sw.run(arrivals, &mut hooks, tw.set_period());
    }

    // Everything still answers; the ring stays bounded; accounting is sane.
    assert!(pq.analysis().checkpoints(0).len() <= 64);
    let health = pq.analysis().health();
    assert!(health.polls_attempted > 0);
    assert!(health.polls_failed > 0);
    let est = pq
        .analysis()
        .query_time_windows(0, QueryInterval::new(0, sw.now()));
    assert!(est.total().is_finite());
}

#[test]
fn same_seed_reproduces_the_same_faulted_run() {
    let tw = small_tw();
    let profile = FaultProfile {
        read_failure_prob: 0.25,
        read_latency: LatencyModel::Uniform(500, 9_000),
        drop_checkpoint_prob: 0.1,
        stall: None,
    };
    let make = || {
        PrintQueueConfig::single_port(tw, 640).with_faults(FaultConfig::new(77).with_base(profile))
    };
    let (pq_a, _) = run_pq(make(), steady_arrivals(), tw.set_period());
    let (pq_b, _) = run_pq(make(), steady_arrivals(), tw.set_period());
    assert_eq!(pq_a.analysis().health(), pq_b.analysis().health());
    assert_eq!(frozen_ats(&pq_a), frozen_ats(&pq_b));
    assert_eq!(
        pq_a.analysis().coverage_gaps(0),
        pq_b.analysis().coverage_gaps(0)
    );
}

#[test]
fn ring_eviction_degrades_queries_over_evicted_history() {
    // The live ring keeps four checkpoints of a 26 ms run polled every
    // t_set: a query over the third set period asks about history the
    // ring let go, and must say so instead of answering "no flows".
    let tw = small_tw();
    let t_set = tw.set_period();
    let mut config = PrintQueueConfig::single_port(tw, 640);
    config.control.max_snapshots = 4;
    let arrivals: Vec<Arrival> = (0..26_000u64)
        .map(|i| Arrival::new(SimPacket::new(FlowId((i % 7) as u32), 800, i * 1_000), 0))
        .collect();
    let (pq, _) = run_pq(config, arrivals, t_set);
    let ap = pq.analysis();
    let kept = ap.checkpoints(0);
    assert_eq!(kept.len(), 4);
    let stored = ap.health().checkpoints_stored;
    assert!(stored > 200, "{stored} polls over 26 ms");

    let early = ap.query_time_windows(0, QueryInterval::new(2 * t_set, 3 * t_set));
    assert!(early.degraded, "evicted history answered as complete");
    assert_eq!(early.gaps.len(), 1, "{:?}", early.gaps);
    let evicted = early.gaps[0];
    assert_eq!(evicted.from, 0);
    assert!(evicted.to >= 3 * t_set && evicted.to < kept[0].frozen_at);
    let qm = ap.query_queue_monitor(0, 2 * t_set).unwrap();
    assert!(qm.degraded);
    assert_eq!(qm.gaps, vec![evicted]);

    // The retained tail still answers in full.
    let last = kept[3].frozen_at;
    let recent = ap.query_time_windows(0, QueryInterval::new(last - t_set / 2, last));
    assert!(!recent.degraded, "{:?}", recent.gaps);
    assert_eq!(recent.counts.len(), 7);
    assert!(ap.coverage_gaps(0).is_empty(), "no poll was missed");

    let evictions = ap
        .telemetry()
        .registry()
        .snapshot()
        .counter(printqueue::telemetry::names::CONTROL_RING_EVICTIONS, &[]);
    assert_eq!(evictions, Some(stored - 4));
}
