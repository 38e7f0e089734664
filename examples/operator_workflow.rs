//! The full operator workflow, end to end:
//!
//! 1. **validate** a configuration against the deployment (§7.1 guidance),
//! 2. **deploy** PrintQueue with a data-plane trigger (§3),
//! 3. **monitor** live traffic (depth + rate telemetry),
//! 4. react to the **trigger** firing on high queueing,
//! 5. **diagnose** the triggering victim (direct/original culprits),
//! 6. **archive** the evidence for offline analysis (artifact parallel).
//!
//! Run with: `cargo run --release --example operator_workflow`

use printqueue::core::diagnosis::diagnose;
use printqueue::core::validation::{is_deployable, validate, DeploymentProfile};
use printqueue::prelude::*;
use printqueue::store::{archives_to_pqa, CheckpointArchive, SegmentPolicy, StoreReader};
use printqueue::switch::{DepthSampler, RateMeter};
use std::io::Cursor;

fn main() {
    // ── 1. validate ────────────────────────────────────────────────────
    let tw = TimeWindowConfig::UW;
    let mut config = PrintQueueConfig::single_port(tw, 110).with_trigger(DataPlaneTrigger {
        min_deq_timedelta: 200_000, // alert at 200 µs of queueing
        min_enq_qdepth: u32::MAX,
        cooldown: 5_000_000,
    });
    config.control.poll_period = 5_000_000;
    let profile = DeploymentProfile {
        port_rate_gbps: 10.0,
        min_pkt_bytes: 64,
        max_depth_cells: 32_768,
        max_query_interval: 1_500_000,
    };
    // First attempt: a 32 Ki-entry queue monitor polled every 5 ms blows
    // the control plane's read budget — the validator catches it.
    let findings = validate(&config, &profile);
    for f in &findings {
        println!("   [{:?}] {}", f.severity, f.code);
    }
    assert!(
        !is_deployable(&findings),
        "the naive config should be rejected"
    );
    // Fix: coarser queue-monitor granularity (4 cells/entry keeps the same
    // depth coverage at a quarter of the read volume) and a gentler 10 ms
    // poll (still well inside the 22.3 ms set period).
    config.qm_entries = 8 * 1024;
    config.qm_cells_per_entry = 4;
    config.control.poll_period = 10_000_000;
    let findings = validate(&config, &profile);
    assert!(is_deployable(&findings), "fixed config: {findings:?}");
    println!("1. configuration validated (after the validator caught a read-budget error) ✓");

    // ── 2. deploy ──────────────────────────────────────────────────────
    let mut pq = PrintQueue::new(config);
    let mut depth = DepthSampler::new(0, 80, 4_096);
    let mut rate = RateMeter::new(0);
    let mut sink = TelemetrySink::new(); // ground truth for the demo only
    println!("2. PrintQueue deployed on port 0 with a 200 µs delay trigger ✓");

    // ── 3. monitor live traffic ────────────────────────────────────────
    let trace = Workload::paper_testbed(WorkloadKind::Uw, 40u64.millis(), 7).generate();
    let mut sw = Switch::new(SwitchConfig::single_port(10.0, 32_768));
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut pq, &mut depth, &mut rate, &mut sink];
        sw.run(trace.arrivals.iter().copied(), &mut hooks, 5_000_000);
    }
    println!(
        "3. monitored {} packets: peak rate {:.1} Gbps, peak depth {} cells ✓",
        sink.records.len(),
        rate.peak_gbps(),
        depth.peak_cells
    );

    // ── 4. the trigger fired ───────────────────────────────────────────
    assert!(
        !pq.triggers_fired.is_empty(),
        "the overloaded port should have tripped the trigger"
    );
    let (_port, interval, at, depth_at_trigger) = pq.triggers_fired[0];
    println!(
        "4. data-plane trigger fired at {:.2} ms (victim waited {:.0} µs, depth {} cells) ✓",
        at as f64 / 1e6,
        interval.len() as f64 / 1e3,
        depth_at_trigger
    );

    // ── 5. diagnose ────────────────────────────────────────────────────
    let special = pq
        .analysis()
        .query_special(0, Some(0))
        .expect("special checkpoint readable");
    let report = diagnose(pq.analysis(), 0, interval.from, interval.to, None);
    println!(
        "5. diagnosis: pattern {:?}; {} culprit flows from the fresh (special) registers;",
        report.pattern,
        special.counts.len()
    );
    for (flow, n) in special.ranked().into_iter().take(3) {
        let tuple = trace
            .flows
            .resolve(flow)
            .map(|k| k.to_string())
            .unwrap_or_default();
        println!("     ~{n:>6.0} pkts  {tuple}");
    }
    let historical = report.historical_only();
    println!(
        "     {} flows implicated only as original causes (already gone)",
        historical.len()
    );

    // ── 6. archive ─────────────────────────────────────────────────────
    let archive = CheckpointArchive::capture(pq.analysis(), 0);
    let pqa =
        archives_to_pqa(Vec::new(), &[archive], SegmentPolicy::default()).expect("archive encodes");
    let reread = StoreReader::open(Cursor::new(&pqa))
        .and_then(|mut reader| reader.read_port(0))
        .expect("archive decodes");
    println!(
        "6. archived {} checkpoints ({:.1} KB .pqa) and re-read them offline ✓",
        reread.checkpoints.len(),
        pqa.len() as f64 / 1e3
    );
    println!("\noperator workflow complete");
}
