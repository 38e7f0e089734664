//! Figure 16: the queue-monitor case study (§7.2).
//!
//! A 9 Gbps background TCP flow shares a 10 Gbps port with a short 4 Gbps
//! burst of 10,000 datagrams; a late 0.5 Gbps TCP flow then suffers the
//! queueing the burst left behind. We diagnose one of the new flow's
//! packets with all three culprit queries.
//!
//! Shape to reproduce (Figure 16(b)): direct culprits are dominated by the
//! background flow (the burst left long ago); indirect culprits are also
//! mostly background (by volume); only the *original* culprits give the
//! burst a share comparable to the background (the paper's 5597 : 6096).

use pq_bench::harness::{run, RunConfig};
use pq_bench::report::{write_json, CommonArgs, Table};
use pq_core::params::TimeWindowConfig;
use pq_core::snapshot::QueryInterval;
use pq_packet::{FlowId, NanosExt};
use pq_trace::scenario::case_study_fig16;
use serde::Serialize;
use std::collections::HashMap;

#[derive(Serialize)]
struct Proportion {
    culprit_type: &'static str,
    source: &'static str,
    burst_pct: f64,
    background_pct: f64,
    new_tcp_pct: f64,
}

fn proportions(counts: &HashMap<FlowId, f64>, roles: &[(FlowId, &'static str); 3]) -> [f64; 3] {
    let total: f64 = counts.values().sum();
    let mut out = [0.0; 3];
    if total == 0.0 {
        return out;
    }
    for (i, (flow, _)) in roles.iter().enumerate() {
        out[i] = counts.get(flow).copied().unwrap_or(0.0) / total * 100.0;
    }
    out
}

fn to_f64(counts: &HashMap<FlowId, u64>) -> HashMap<FlowId, f64> {
    counts.iter().map(|(f, n)| (*f, *n as f64)).collect()
}

fn main() {
    let args = CommonArgs::parse();
    let duration = if args.quick {
        60u64.millis()
    } else {
        150u64.millis()
    };
    let cs = case_study_fig16(duration, args.seed);
    eprintln!(
        "[fig16] {} packets; burst at {:.1} ms, new TCP at {:.1} ms",
        cs.trace.packets(),
        cs.burst_start as f64 / 1e6,
        cs.new_tcp_start as f64 / 1e6
    );

    // WS/DM-style parameters (MTU traffic); poll every 2 ms so queue-monitor
    // snapshots exist throughout the congestion.
    let tw = TimeWindowConfig::WS_DM;
    let mut config = RunConfig::new(tw, 200); // burst datagrams are 250 B → d = 200 ns
    config.max_depth_cells = 40_000;
    config.pq.control.poll_period = 2u64.millis();
    let mut out = run(&config, &cs.trace);

    // The victim: the first new-TCP packet that experienced heavy queueing.
    let victim = out
        .truth
        .records()
        .iter()
        .filter(|r| r.flow == cs.roles.new_tcp)
        .max_by_key(|r| r.meta.deq_timedelta)
        .copied()
        .expect("new TCP flow transmitted packets");
    let t1 = victim.meta.enq_timestamp;
    let t2 = victim.deq_timestamp();
    eprintln!(
        "[fig16] victim enq {:.2} ms, queueing {:.2} ms, depth {} cells",
        t1 as f64 / 1e6,
        (t2 - t1) as f64 / 1e6,
        victim.meta.enq_qdepth
    );

    // Queue depth series (Figure 16(a)).
    let series = out.truth.depth_series(0, duration, 500_000);
    let peak = series.iter().map(|(_, d)| *d).max().unwrap_or(0);
    let burst_span = 10_000u64 * 500; // 10k datagrams at 4 Gbps, 250 B each
    let queueing_span = {
        let above: Vec<&(u64, u32)> = series.iter().filter(|(_, d)| *d > 100).collect();
        match (above.first(), above.last()) {
            (Some(first), Some(last)) => last.0 - first.0,
            _ => 0,
        }
    };
    println!("\n== Figure 16(a) — queue depth over time ==");
    println!("peak depth: {peak} cells; congestion span ≈ {:.1} ms (burst itself {:.1} ms, ratio {:.1}x)",
        queueing_span as f64 / 1e6, burst_span as f64 / 1e6,
        queueing_span as f64 / burst_span as f64);
    for (t, d) in series.iter().step_by(10) {
        let bars = (d / 1_000) as usize;
        println!(
            "{:>7.1} ms |{}{}",
            *t as f64 / 1e6,
            "#".repeat(bars),
            if *d > 0 && bars == 0 { "." } else { "" }
        );
    }

    let roles = [
        (cs.roles.burst, "burst"),
        (cs.roles.background, "background"),
        (cs.roles.new_tcp, "new TCP"),
    ];

    // Ground-truth report for the victim.
    let gt = out.truth.report(&victim);

    // PrintQueue queries.
    let direct_est = out
        .printqueue
        .analysis_mut()
        .query_time_windows(0, QueryInterval::new(t1, t2));
    let indirect_est = out
        .printqueue
        .analysis_mut()
        .query_time_windows(0, QueryInterval::new(gt.regime_start, t1.saturating_sub(1)));
    let qm_snapshot = out
        .printqueue
        .analysis()
        .query_queue_monitor(0, t2)
        .expect("queue-monitor checkpoint");
    let original_est: HashMap<FlowId, f64> = qm_snapshot
        .culprit_counts()
        .iter()
        .map(|(f, n)| (*f, *n as f64))
        .collect();

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "culprits",
        "source",
        "burst %",
        "background %",
        "new TCP %",
    ]);
    let sets: [(&'static str, &'static str, HashMap<FlowId, f64>); 6] = [
        ("direct", "PrintQueue", direct_est.estimates.counts),
        ("direct", "ground truth", to_f64(&gt.direct)),
        ("indirect", "PrintQueue", indirect_est.estimates.counts),
        ("indirect", "ground truth", to_f64(&gt.indirect)),
        ("original", "PrintQueue", original_est),
        ("original", "ground truth", to_f64(&gt.original)),
    ];
    for (culprit_type, source, counts) in sets {
        let p = proportions(&counts, &roles);
        table.row(vec![
            culprit_type.to_string(),
            source.to_string(),
            format!("{:.1}", p[0]),
            format!("{:.1}", p[1]),
            format!("{:.1}", p[2]),
        ]);
        rows.push(Proportion {
            culprit_type,
            source,
            burst_pct: p[0],
            background_pct: p[1],
            new_tcp_pct: p[2],
        });
    }
    table.print("Figure 16(b) — culprit proportions for the victim");

    // Buildup narrative: which depth band each flow founded.
    println!("\nqueue-monitor buildup ranges (who raised which levels):");
    let mut ranges: Vec<_> = qm_snapshot.buildup_ranges().into_iter().collect();
    ranges.sort_by_key(|(_, (lo, _))| *lo);
    for (flow, (lo, hi)) in ranges {
        let name = roles
            .iter()
            .find(|(f, _)| *f == flow)
            .map(|(_, n)| *n)
            .unwrap_or("other");
        println!("  {name:<10} levels {lo:>6} – {hi:>6} cells");
    }
    println!(
        "\npaper reference: original culprits show burst ≈ background (5597:6096)\n\
         while direct culprits contain no burst packets at all"
    );
    write_json("fig16_case_study", &rows);
}
