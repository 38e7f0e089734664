//! Extension experiment: checkpoint archive I/O through the `.pqa`
//! segmented binary store.
//!
//! Sweeps the archive size (number of spilled checkpoints) and measures
//! bytes on disk, streaming encode and full-decode wall time, and the
//! latency of a narrow time-range replay-query. The store answers that
//! query from the trailer index by decoding only the overlapping segments;
//! the baseline is what a store without the index would do — decode every
//! checkpoint (`read_all`) and walk them all (`query_slices`). The pruned
//! query speedup over it is the acceptance number for the index.

use pq_bench::report::{write_json, CommonArgs, Table};
use pq_bench::serving::{spill_polls, tw, MIN_PKT_TX_DELAY, POLL_PERIOD};
use pq_core::coefficient::Coefficients;
use pq_core::control::query_slices;
use pq_core::snapshot::{FlowEstimates, QueryInterval};
use pq_store::{SegmentPolicy, StoreReader};
use serde::Serialize;
use std::io::Cursor;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    checkpoints: u64,
    pqa_bytes: u64,
    pqa_encode_ms: f64,
    pqa_decode_ms: f64,
    full_scan_query_ms: f64,
    pqa_pruned_query_ms: f64,
    query_speedup: f64,
    segments: usize,
}

/// Median-of-`reps` wall time in milliseconds.
fn time_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn run_one(n_checkpoints: u64, reps: usize) -> Row {
    // Encode: spill streaming into an in-memory .pqa while the program
    // runs, exactly as `pqsim archive` does.
    let pqa_start = Instant::now();
    let (_, pqa_bytes_buf) = spill_polls(&[0], n_checkpoints, SegmentPolicy::default());
    let pqa_encode_ms = pqa_start.elapsed().as_secs_f64() * 1e3;
    let open = || StoreReader::open(Cursor::new(pqa_bytes_buf.as_slice())).unwrap();

    // Full decode: bytes back to in-RAM archives.
    let pqa_decode_ms = time_ms(reps, || {
        let archives = open().read_all().unwrap();
        assert_eq!(archives[0].checkpoints.len() as u64, n_checkpoints);
    });

    // Replay-query: a narrow interval near the end of the run (the usual
    // "diagnose this recent victim" shape). The full scan decodes and
    // walks everything; the index decodes only overlapping segments.
    let t_end = n_checkpoints * POLL_PERIOD;
    let interval = QueryInterval::new(t_end.saturating_sub(4 * POLL_PERIOD), t_end);
    let coeffs = Coefficients::compute(&tw(), MIN_PKT_TX_DELAY);
    let reference = open().query(0, interval, &coeffs).unwrap();
    let full_scan_query_ms = time_ms(reps, || {
        let archives = open().read_all().unwrap();
        let mut estimates = FlowEstimates::default();
        query_slices(
            &archives[0].checkpoints,
            interval,
            &coeffs,
            None,
            &mut estimates,
        );
        assert_eq!(estimates.counts, reference.estimates.counts);
    });
    let pqa_pruned_query_ms = time_ms(reps, || {
        let result = open().query(0, interval, &coeffs).unwrap();
        assert_eq!(result.estimates.counts, reference.estimates.counts);
    });

    Row {
        checkpoints: n_checkpoints,
        pqa_bytes: pqa_bytes_buf.len() as u64,
        pqa_encode_ms,
        pqa_decode_ms,
        full_scan_query_ms,
        pqa_pruned_query_ms,
        query_speedup: full_scan_query_ms / pqa_pruned_query_ms,
        segments: open().segments().len(),
    }
}

fn main() {
    let args = CommonArgs::parse();
    let (counts, reps): (&[u64], usize) = if args.quick {
        (&[128, 512, 2048], 5)
    } else {
        (&[128, 512, 2048, 8192], 9)
    };
    eprintln!(
        "[ext_archive_io] .pqa over {:?} checkpoints, median of {reps} reps",
        counts
    );

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "checkpoints",
        "pqa MB",
        "full scan ms",
        "pruned ms",
        "speedup",
        "segments",
    ]);
    for &n in counts {
        let row = run_one(n, reps);
        table.row(vec![
            format!("{n}"),
            format!("{:.3}", row.pqa_bytes as f64 / 1e6),
            format!("{:.2}", row.full_scan_query_ms),
            format!("{:.3}", row.pqa_pruned_query_ms),
            format!("{:.0}x", row.query_speedup),
            format!("{}", row.segments),
        ]);
        rows.push(row);
    }
    table.print("Extension — archive I/O: pruned .pqa query vs a full scan");
    write_json("ext_archive_io", &rows);
}
