//! Format guard: a fixed-seed archive must keep the exact bytes the
//! pre-sparse encoder produced.

use pq_core::control::Checkpoint;
use pq_core::params::TimeWindowConfig;
use pq_core::queue_monitor::{Entry, Half, QueueMonitorSnapshot};
use pq_core::snapshot::{QueryInterval, TimeWindowSnapshot};
use pq_core::time_windows::Cell;
use pq_packet::FlowId;
use pq_store::{SegmentPolicy, StoreWriter};

fn monitor(entries: Vec<Entry>, top: u32) -> QueueMonitorSnapshot {
    QueueMonitorSnapshot::from_dense(&entries, top)
}

/// A small archive from a fixed multiplicative generator: 40 checkpoints
/// of two 300-entry monitors each, five checkpoints a segment.
fn pinned_archive() -> Vec<u8> {
    let tw = TimeWindowConfig::new(4, 2, 5, 3);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |bound: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % bound
    };
    let policy = SegmentPolicy {
        checkpoints_per_segment: 5,
        ..SegmentPolicy::default()
    };
    let mut w = StoreWriter::new(Vec::new(), tw, policy).unwrap();
    let mut seq = 1u64;
    for i in 0..40u64 {
        let mut windows = vec![vec![Cell::EMPTY; tw.cells()]; usize::from(tw.t)];
        for window in &mut windows {
            for _ in 0..next(12) {
                window[next(tw.cells() as u64) as usize] = Cell {
                    flow: FlowId(next(50) as u32),
                    cycle: i * 3 + next(3),
                };
            }
        }
        let monitors = (0..2)
            .map(|_| {
                let mut entries = vec![Entry::default(); 300];
                for _ in 0..next(90) {
                    let e = &mut entries[next(300) as usize];
                    let half = Half {
                        flow: FlowId(next(50) as u32),
                        seq,
                    };
                    seq += 1 + next(4);
                    if next(2) == 0 {
                        e.inc = half;
                    } else {
                        e.dec = half;
                    }
                }
                monitor(entries, next(300) as u32)
            })
            .collect();
        let on_demand = next(5) == 0;
        let cp = Checkpoint {
            frozen_at: 1_000 + i * 640 + next(64),
            on_demand,
            trigger: on_demand.then(|| QueryInterval::new(i * 600, i * 640 + 900)),
            windows: TimeWindowSnapshot::from_parts(tw, windows, next(7) == 0),
            queue_monitors: monitors,
        };
        w.push((i % 2) as u16, &cp).unwrap();
    }
    w.finish().unwrap()
}

/// Length and CRC-32 of [`pinned_archive`] as written by the commit
/// before queue-monitor snapshots went sparse (dense two-scan encoder,
/// byte-at-a-time CRC). Any drift here is a `.pqa` format change.
#[test]
fn archive_bytes_are_pinned() {
    let bytes = pinned_archive();
    assert_eq!(bytes.len(), 16_165);
    assert_eq!(pq_store::crc::crc32(&bytes), 0x4FA1_8EB0);
}
