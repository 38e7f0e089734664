//! Extension experiment: *measured* storage comparison on a live run.
//!
//! Figure 14(a)'s ratio is analytic; this binary measures the same
//! comparison end-to-end: the UW workload runs once with both a
//! NetSight-style postcard collector (linear per-packet storage) and
//! PrintQueue's analysis program (periodic register reads) attached, and
//! reports actual bytes accumulated by each, plus what each can answer.
//! The register reads are also spilled into a `.pqa` archive in memory,
//! which prices what PrintQueue's history costs once it is stored.

use pq_baselines::history::PostcardEmitter;
use pq_bench::harness::RunConfig;
use pq_bench::report::{write_json, CommonArgs, Table};
use pq_core::culprits::GroundTruth;
use pq_core::metrics::{self, precision_recall};
use pq_core::params::TimeWindowConfig;
use pq_core::printqueue::PrintQueue;
use pq_core::snapshot::QueryInterval;
use pq_packet::NanosExt;
use pq_store::{SegmentPolicy, SharedStoreWriter, StoreWriter};
use pq_switch::{QueueHooks, Switch, SwitchConfig, TelemetrySink};
use pq_trace::workload::{Workload, WorkloadKind};
use serde::Serialize;

#[derive(Serialize)]
struct Output {
    duration_ms: u64,
    packets: u64,
    netsight_bytes: u64,
    printqueue_bytes: u64,
    pqa_bytes: u64,
    ratio: f64,
    netsight_recall: f64,
    printqueue_recall: f64,
}

fn main() {
    let args = CommonArgs::parse();
    let duration = if args.quick {
        30u64.millis()
    } else {
        120u64.millis()
    };
    let tw = TimeWindowConfig::UW;
    let config = RunConfig::new(tw, 110);
    let trace = Workload::paper_testbed(WorkloadKind::Uw, duration, args.seed).generate();
    eprintln!("[ext_storage_measured] UW: {} packets", trace.packets());

    let mut pq = PrintQueue::new(config.pq.clone());
    let writer = StoreWriter::new(Vec::new(), tw, SegmentPolicy::default()).expect("UW geometry");
    let archive = SharedStoreWriter::new(writer);
    pq.analysis_mut().set_spill(Box::new(archive.clone()));
    let mut emitter = PostcardEmitter::new(1);
    let mut sink = TelemetrySink::new();
    let mut sw = Switch::new(SwitchConfig::single_port(
        config.port_rate_gbps,
        config.max_depth_cells,
    ));
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut pq, &mut emitter, &mut sink];
        sw.run(trace.arrivals.iter().copied(), &mut hooks, tw.set_period());
    }

    // Accuracy of each on a sample victim (NetSight is exact by
    // construction; PrintQueue approximates).
    let truth = GroundTruth::new(&sink.records, 80);
    let victim = truth
        .records()
        .iter()
        .filter(|r| r.meta.enq_qdepth > 5_000)
        .max_by_key(|r| r.meta.deq_timedelta)
        .copied()
        .expect("congested victim");
    let interval = QueryInterval::new(victim.meta.enq_timestamp, victim.deq_timestamp());
    let gt =
        metrics::to_float_counts(&truth.direct_culprits(interval.from, interval.to, victim.seqno));

    let ns_counts = metrics::to_float_counts(&emitter.collector.flow_counts(
        1,
        0,
        interval.from,
        interval.to,
    ));
    // The collector also logged the victim itself; remove one packet of its
    // flow to mirror the ground-truth convention.
    let mut ns_counts = ns_counts;
    if let Some(n) = ns_counts.get_mut(&victim.flow) {
        *n -= 1.0;
    }
    let ns_pr = precision_recall(&ns_counts, &gt);

    let pq_est = pq.analysis().query_time_windows(0, interval);
    let pq_pr = precision_recall(&pq_est.counts, &gt);

    let netsight_bytes = emitter.collector.storage_bytes();
    let printqueue_bytes = pq.analysis().bytes_read;
    let pqa_bytes = archive.finish().expect("in-memory archive").len() as u64;
    let out = Output {
        duration_ms: duration / 1_000_000,
        packets: sw.port_stats(0).dequeued,
        netsight_bytes,
        printqueue_bytes,
        pqa_bytes,
        ratio: netsight_bytes as f64 / printqueue_bytes.max(1) as f64,
        netsight_recall: ns_pr.recall,
        printqueue_recall: pq_pr.recall,
    };

    let mut table = Table::new(vec!["system", "collected bytes", "victim P/R"]);
    table.row(vec![
        "NetSight postcards".to_string(),
        format!("{} ({:.1} MB)", netsight_bytes, netsight_bytes as f64 / 1e6),
        format!("{:.3}/{:.3}", ns_pr.precision, ns_pr.recall),
    ]);
    table.row(vec![
        "PrintQueue registers".to_string(),
        format!(
            "{} ({:.2} MB)",
            printqueue_bytes,
            printqueue_bytes as f64 / 1e6
        ),
        format!("{:.3}/{:.3}", pq_pr.precision, pq_pr.recall),
    ]);
    table.row(vec![
        "PrintQueue .pqa archive".to_string(),
        format!("{} ({:.2} MB)", pqa_bytes, pqa_bytes as f64 / 1e6),
        format!("{:.3}/{:.3}", pq_pr.precision, pq_pr.recall),
    ]);
    table.print("Extension — measured storage: linear postcards vs PrintQueue");
    println!(
        "\nlinear storage collected {:.0}x more bytes over {} ms of UW traffic\n\
         ({:.0}x the .pqa archive of the same reads);\n\
         it answers exactly, PrintQueue approximates at a fraction of the cost\n\
         (the trade Figure 14(a) prices analytically).",
        out.ratio,
        out.duration_ms,
        netsight_bytes as f64 / pqa_bytes.max(1) as f64
    );
    write_json("ext_storage_measured", &out);
}
