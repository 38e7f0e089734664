//! Extension experiment: passive RTT measurement precision under stress.
//!
//! The pq-rtt engines (seq-match histograms + QUIC spin-bit edges) run in
//! the switch pipeline under a fixed per-port memory budget. This binary
//! sweeps the QUIC-like workload over flow count × reordering × loss and
//! grades the estimates against the generator's ground truth:
//!
//! * **p50 relative error** of per-flow mean RTT over graded flows
//!   (≥ 8 samples — a spin flow that sent for less than one RTT yields
//!   no edges by construction),
//! * **top-decile recall** — does ranking flows by estimated mean find
//!   the truly slowest tenth? — the "who is the slow peer" headline,
//! * the honesty counters (collisions, evictions, sample drops) that
//!   justify each answer's degraded flag.
//!
//! Headline acceptance at the default budget (default `TableConfig`,
//! benign loss/reorder): p50 error ≤ 10% and top-decile recall ≥ 0.9.
//! The workload parameters of the sweep are stamped into the `meta`
//! block of `results/ext_rtt_precision.json`.

use pq_bench::report::{f3, write_json_with_meta, CommonArgs, Table};
use pq_rtt::{RttGrade, RttReport, RttWorkload};
use serde::{Serialize, Value};

#[derive(Serialize)]
struct Row {
    flows: u32,
    reorder: f64,
    loss: f64,
    samples: u64,
    graded_flows: usize,
    p50_err: f64,
    p90_err: f64,
    top_decile_recall: f64,
    collisions: u64,
    evictions: u64,
    sample_drops: u64,
    degraded: bool,
}

fn main() {
    let args = CommonArgs::parse();
    let flow_counts: &[u32] = if args.quick { &[64] } else { &[64, 256] };
    let reorders: &[f64] = if args.quick {
        &[0.0, 0.2]
    } else {
        &[0.0, 0.05, 0.2]
    };
    let losses: &[f64] = if args.quick {
        &[0.0, 0.1]
    } else {
        &[0.0, 0.02, 0.1]
    };
    let pkts_per_flow: u32 = if args.quick { 96 } else { 192 };
    eprintln!(
        "[ext_rtt_precision] {:?} flows × {:?} reorder × {:?} loss, {pkts_per_flow} pkts/flow",
        flow_counts, reorders, losses
    );

    let mut table = Table::new(vec![
        "flows", "reorder", "loss", "samples", "graded", "p50 err", "p90 err", "recall", "coll",
        "evict", "drops",
    ]);
    let mut rows = Vec::new();
    let mut headline = None;
    for &flows in flow_counts {
        for &reorder in reorders {
            for &loss in losses {
                let cfg = RttWorkload {
                    flows,
                    ports: 1,
                    pkts_per_flow,
                    reorder,
                    loss,
                    seed: args.seed,
                    ..RttWorkload::default()
                };
                let (reports, truth) = cfg.measure();
                let grade = RttGrade::new(&reports, &truth);
                let (errs, recall) = (&grade.errs, grade.top_decile_recall.unwrap_or(0.0));
                let samples: u64 = reports.iter().map(RttReport::sample_count).sum();
                let c = reports.iter().fold((0u64, 0u64, 0u64), |acc, r| {
                    (
                        acc.0 + r.counters.collisions,
                        acc.1 + r.counters.evictions,
                        acc.2 + r.counters.sample_drops,
                    )
                });
                let p50 = grade.p50_err().unwrap_or(f64::NAN);
                let p90 = errs
                    .get(errs.len() * 9 / 10)
                    .or(errs.last())
                    .copied()
                    .unwrap_or(f64::NAN);
                // The default-budget headline cell: benign impairment.
                if reorder == 0.0 && loss == 0.0 {
                    let h = headline.get_or_insert((p50, recall));
                    h.0 = h.0.max(p50);
                    h.1 = h.1.min(recall);
                }
                table.row(vec![
                    flows.to_string(),
                    f3(reorder),
                    f3(loss),
                    samples.to_string(),
                    errs.len().to_string(),
                    f3(p50),
                    f3(p90),
                    f3(recall),
                    c.0.to_string(),
                    c.1.to_string(),
                    c.2.to_string(),
                ]);
                rows.push(Row {
                    flows,
                    reorder,
                    loss,
                    samples,
                    graded_flows: errs.len(),
                    p50_err: p50,
                    p90_err: p90,
                    top_decile_recall: recall,
                    collisions: c.0,
                    evictions: c.1,
                    sample_drops: c.2,
                    degraded: reports.iter().any(RttReport::degraded),
                });
            }
        }
    }
    table.print("Extension — passive RTT precision vs flows × reorder × loss");
    if let Some((p50, recall)) = headline {
        let ok = p50 <= 0.10 && recall >= 0.9;
        println!(
            "\nheadline (default budget, no impairment): p50 err {} (≤ 0.100 required), \
             top-decile recall {} (≥ 0.900 required) — {}",
            f3(p50),
            f3(recall),
            if ok { "PASS" } else { "FAIL" }
        );
    }
    println!(
        "\nseq-match samples dominate; loss thins them roughly linearly while\n\
         reordering perturbs pairing and spin edges — the histograms' one-octave\n\
         bucket error stays the floor, and the counters say when to distrust a cell."
    );
    // Stamp the swept workload parameters into the provenance block so a
    // results file is interpretable without the argv.
    let farr = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::F64(x)).collect());
    let meta = vec![
        (
            "flows".to_string(),
            Value::Array(flow_counts.iter().map(|&f| Value::U64(f as u64)).collect()),
        ),
        ("reorder_rate".to_string(), farr(reorders)),
        ("loss_rate".to_string(), farr(losses)),
        (
            "pkts_per_flow".to_string(),
            Value::U64(u64::from(pkts_per_flow)),
        ),
        ("seed".to_string(), Value::U64(args.seed)),
    ];
    write_json_with_meta("ext_rtt_precision", &rows, true, meta);
}
