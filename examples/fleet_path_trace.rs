//! Fabric-wide path tracing: one PrintQueue instance per switch, diagnosing
//! one packet's delay across three hops.
//!
//! This is the §8 integration story: PrintQueue stays strictly per-switch,
//! and a higher-level (provenance-style) layer combines per-hop answers —
//! here, finding which hop added the delay and who was responsible there.
//!
//! Run with: `cargo run --release --example fleet_path_trace`

use printqueue::core::diagnosis::diagnose;
use printqueue::prelude::*;
use printqueue::switch::topology::DepartureTap;

fn main() {
    // Fabric: switch 1 (40G) → switch 2 (10G, the bottleneck) → switch 3
    // (40G). Victim flow 0 shares the path with heavy flow 1; flow 2 joins
    // only at switch 2.
    let tw = TimeWindowConfig::WS_DM;
    let mut config = PrintQueueConfig::single_port(tw, 1200);
    config.control.poll_period = 1_000_000;
    let mut switches: Vec<PrintQueue> = (0..3).map(|_| PrintQueue::new(config.clone())).collect();

    // Traffic into switch 1.
    let mut arrivals = Vec::new();
    for i in 0..3_000u64 {
        arrivals.push(Arrival::new(SimPacket::new(FlowId(1), 1500, i * 800), 0));
        if i % 25 == 0 {
            arrivals.push(Arrival::new(
                SimPacket::new(FlowId(0), 1500, i * 800 + 3),
                0,
            ));
        }
    }
    arrivals.sort_by_key(|a| a.pkt.arrival);

    // Hop 1.
    let mut sw1 = Switch::new(SwitchConfig::single_port(40.0, 32_768));
    let mut tap1 = DepartureTap::new(0, 0, 3_000);
    let mut sink1 = TelemetrySink::new();
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut tap1, &mut switches[0], &mut sink1];
        sw1.run(arrivals, &mut hooks, 1_000_000);
    }

    // Hop 2 receives hop 1's departures plus local cross-traffic (flow 2).
    let mut hop2_arrivals = tap1.into_arrivals();
    for i in 0..1_500u64 {
        hop2_arrivals.push(Arrival::new(SimPacket::new(FlowId(2), 1500, i * 1_600), 0));
    }
    hop2_arrivals.sort_by_key(|a| a.pkt.arrival);
    let mut sw2 = Switch::new(SwitchConfig::single_port(10.0, 32_768));
    let mut tap2 = DepartureTap::new(0, 0, 3_000);
    let mut sink2 = TelemetrySink::new();
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut tap2, &mut switches[1], &mut sink2];
        sw2.run(hop2_arrivals, &mut hooks, 1_000_000);
    }

    // Hop 3.
    let mut sw3 = Switch::new(SwitchConfig::single_port(40.0, 32_768));
    let mut sink3 = TelemetrySink::new();
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut switches[2], &mut sink3];
        sw3.run(tap2.into_arrivals(), &mut hooks, 1_000_000);
    }

    // Assemble the victim's per-hop record from each hop's telemetry (in
    // deployment: INT postcards or per-hop probes), then diagnose each hop
    // against that switch's own checkpoints.
    let pick = |sink: &TelemetrySink| {
        sink.records
            .iter()
            .filter(|r| r.flow == FlowId(0))
            .max_by_key(|r| r.meta.deq_timedelta)
            .copied()
            .expect("victim traversed the hop")
    };
    let hops = [pick(&sink1), pick(&sink2), pick(&sink3)];
    let delays: Vec<Nanos> = hops.iter().map(|v| v.meta.deq_timedelta.into()).collect();
    let total: Nanos = delays.iter().sum();
    let dominant = (0..hops.len()).max_by_key(|&i| delays[i]).unwrap_or(0);
    let diagnoses: Vec<_> = hops
        .iter()
        .zip(&switches)
        .map(|(v, pq)| {
            diagnose(
                pq.analysis(),
                0,
                v.meta.enq_timestamp,
                v.deq_timestamp(),
                None,
            )
        })
        .collect();

    println!(
        "path diagnosis for flow#0 (total queueing {:.1} µs):",
        total as f64 / 1e3
    );
    for (i, diagnosis) in diagnoses.iter().enumerate() {
        let top = diagnosis.top_direct(1);
        println!(
            "  hop {} (switch {}): {:>6.1} µs ({:>4.1}%){} — top culprit: {}",
            i + 1,
            i + 1,
            delays[i] as f64 / 1e3,
            delays[i] as f64 / total.max(1) as f64 * 100.0,
            if i == dominant { "  ← dominant" } else { "" },
            top.first()
                .map(|(f, n)| format!("{f} (~{n:.0} pkts)"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    assert_eq!(dominant, 1, "switch 2 must dominate");
    let culprits = diagnoses[1].top_direct(2);
    println!(
        "\nswitch 2's culprits include the cross-traffic that joined there: {:?}",
        culprits.iter().map(|(f, _)| f.0).collect::<Vec<_>>()
    );
    println!("fabric-wide attribution from per-switch instances ✓");
}
