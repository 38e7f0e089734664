//! Per-packet data-plane hot path micro-benchmarks.
//!
//! On the Tofino the per-packet cost is fixed by the pipeline (time windows
//! need 4 preparation stages + 2 per window; the queue monitor 6, §7). In
//! software the analogous number is nanoseconds per update, which is what
//! these benches time, one structure at a time. Whether the whole stack
//! sustains a trace's packet rate is the end-to-end harness's question:
//! `bench/run.sh --workload ingest_uw` read `ingest_mpps` 7.48 Mpps
//! before PR 15 and 14.78 Mpps after (0.63× → 1.24× the
//! 11.9 Mpps the UW trace offers).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pq_core::params::TimeWindowConfig;
use pq_core::queue_monitor::QueueMonitor;
use pq_core::time_windows::TimeWindowSet;
use pq_packet::FlowId;

fn bench_time_windows(c: &mut Criterion) {
    let mut group = c.benchmark_group("time_windows_record");
    group.throughput(Throughput::Elements(1));
    for (label, tw) in [
        ("uw_2_12_4", TimeWindowConfig::UW),
        ("wsdm_1_12_4", TimeWindowConfig::WS_DM),
        ("deep_2_12_8", TimeWindowConfig::new(6, 2, 12, 8)),
    ] {
        let mut set = TimeWindowSet::new(tw);
        let mut ts = 0u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                ts += 110;
                set.record(black_box(FlowId((ts % 4096) as u32)), black_box(ts));
            })
        });
    }
    group.finish();
}

fn bench_queue_monitor(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_monitor");
    group.throughput(Throughput::Elements(1));
    let mut qm = QueueMonitor::new(32 * 1024, 1);
    let mut depth = 0u32;
    let mut up = true;
    group.bench_function("enqueue_dequeue_cycle", |b| {
        b.iter(|| {
            if up {
                depth += 2;
                qm.on_enqueue(black_box(FlowId(depth % 97)), black_box(depth), 0);
                if depth > 20_000 {
                    up = false;
                }
            } else {
                depth -= 2;
                qm.on_dequeue(black_box(FlowId(depth % 97)), black_box(depth), 0);
                if depth < 2 {
                    up = true;
                }
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_time_windows, bench_queue_monitor);
criterion_main!(benches);
