//! Format guard: fixed-seed archives must keep the exact bytes earlier
//! writers produced.

use pq_core::control::{Checkpoint, CoverageGap};
use pq_core::metrics::ControlHealth;
use pq_core::params::TimeWindowConfig;
use pq_core::queue_monitor::{Entry, Half, QueueMonitorSnapshot};
use pq_core::snapshot::{QueryInterval, TimeWindowSnapshot};
use pq_core::time_windows::Cell;
use pq_packet::FlowId;
use pq_store::{SegmentPolicy, StoreReader, StoreWriter, KIND_CHECKPOINTS, KIND_RTT};

const TW: TimeWindowConfig = TimeWindowConfig {
    m0: 4,
    alpha: 2,
    k: 5,
    t: 3,
};

/// The fixed multiplicative generator both archives draw from.
struct Gen {
    x: u64,
    seq: u64,
}

impl Gen {
    fn new() -> Gen {
        Gen {
            x: 0x9E37_79B9_7F4A_7C15,
            seq: 1,
        }
    }

    fn next(&mut self, bound: u64) -> u64 {
        self.x = self
            .x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.x >> 33) % bound
    }

    /// Checkpoint `i`: a few cells a window and two 300-entry monitors of
    /// fewer than `fill` writes each.
    fn checkpoint(&mut self, i: u64, fill: u64) -> Checkpoint {
        let mut windows = vec![vec![Cell::EMPTY; TW.cells()]; usize::from(TW.t)];
        for window in &mut windows {
            for _ in 0..self.next(12) {
                window[self.next(TW.cells() as u64) as usize] = Cell {
                    flow: FlowId(self.next(50) as u32),
                    cycle: i * 3 + self.next(3),
                };
            }
        }
        let monitors = (0..2)
            .map(|_| {
                let mut entries = vec![Entry::default(); 300];
                for _ in 0..self.next(fill) {
                    let e = &mut entries[self.next(300) as usize];
                    let half = Half {
                        flow: FlowId(self.next(50) as u32),
                        seq: self.seq,
                    };
                    self.seq += 1 + self.next(4);
                    if self.next(2) == 0 {
                        e.inc = half;
                    } else {
                        e.dec = half;
                    }
                }
                QueueMonitorSnapshot::from_dense(&entries, self.next(300) as u32)
            })
            .collect();
        let on_demand = self.next(5) == 0;
        Checkpoint {
            frozen_at: 1_000 + i * 640 + self.next(64),
            on_demand,
            trigger: on_demand.then(|| QueryInterval::new(i * 600, i * 640 + 900)),
            windows: TimeWindowSnapshot::from_parts(TW, windows, self.next(7) == 0),
            queue_monitors: monitors,
        }
    }
}

/// 40 checkpoints of two 300-entry monitors each over two ports, five
/// checkpoints a segment.
fn pinned_archive() -> Vec<u8> {
    let policy = SegmentPolicy {
        checkpoints_per_segment: 5,
        ..SegmentPolicy::default()
    };
    let mut gen = Gen::new();
    let mut w = StoreWriter::new(Vec::new(), TW, policy).unwrap();
    for i in 0..40u64 {
        let cp = gen.checkpoint(i, 90);
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

/// Everything the writer's framing can do, in one file: ports 1 and 700,
/// four checkpoints a segment unless the body passes 2 KiB first (every
/// seventh checkpoint is heavy enough to do that), an RTT segment pushed
/// raw into the middle of port 1's stream (sealing its open segment
/// early), a recorded gap, health counters, and a short last segment a
/// port sealed only by `finish`.
fn framing_archive() -> Vec<u8> {
    let policy = SegmentPolicy {
        checkpoints_per_segment: 4,
        max_segment_bytes: 2 << 10,
        retain_segments_per_port: None,
    };
    let mut gen = Gen::new();
    let mut w = StoreWriter::new(Vec::new(), TW, policy).unwrap();
    for i in 0..38u64 {
        let port = if i % 2 == 0 { 1 } else { 700 };
        let cp = gen.checkpoint(i, if i % 7 == 3 { 600 } else { 60 });
        w.push(port, &cp).unwrap();
        if i == 16 {
            let body: Vec<u8> = (0..333).map(|_| gen.next(256) as u8).collect();
            w.push_raw(1, KIND_RTT, 17, 9_000, 12_500, &body).unwrap();
        }
        if i == 25 {
            w.push_gap(
                700,
                CoverageGap {
                    from: 15_000,
                    to: 16_900,
                },
            );
        }
    }
    w.set_health(
        1,
        ControlHealth {
            polls_attempted: 19,
            checkpoints_stored: 19,
            ..ControlHealth::default()
        },
    );
    w.finish().unwrap()
}

type SegmentRow = (u16, u64, u64, u64, u64, u32);

/// `(port, kind, count, offset, len, body_crc)` of every segment of
/// [`framing_archive`], in file order, as written by the commit before
/// segments were framed in place (a separate frame buffer per seal,
/// slice-by-8 CRC, two-pass window encoder).
const FRAMING_SEGMENTS: &[SegmentRow] = &[
    (1, 0, 4, 9, 1581, 0x0ADF_36EF),
    (700, 0, 4, 1590, 1680, 0x04D2_12E9),
    (1, 0, 2, 3270, 2830, 0x5EC8_7504),
    (700, 0, 4, 6100, 1378, 0x7BB1_3530),
    (1, 0, 3, 7478, 866, 0x6694_3138),
    (1, 1, 17, 8344, 353, 0x18B3_F850),
    (700, 0, 2, 8697, 2200, 0x461A_A78A),
    (1, 0, 4, 10897, 1966, 0x76C0_35F8),
    (700, 0, 4, 12863, 962, 0x4EB7_29B2),
    (1, 0, 4, 13825, 1279, 0xFADE_8513),
    (700, 0, 3, 15104, 2167, 0x405B_C77C),
    (1, 0, 2, 17271, 625, 0x6ED2_1308),
    (700, 0, 2, 17896, 777, 0xEB24_E805),
];

#[test]
fn framing_archive_is_pinned_segment_by_segment() {
    let bytes = framing_archive();
    let reader = StoreReader::open(std::io::Cursor::new(&bytes)).unwrap();
    let got: Vec<SegmentRow> = reader
        .segments()
        .iter()
        .map(|s| (s.port, s.kind, s.count, s.offset, s.len, s.body_crc))
        .collect();
    if got != FRAMING_SEGMENTS {
        for (port, kind, count, offset, len, crc) in &got {
            eprintln!("    ({port}, {kind}, {count}, {offset}, {len}, 0x{crc:08X}),");
        }
        panic!("segment table drifted (actual rows above)");
    }
    assert_eq!(
        (bytes.len(), pq_store::crc::crc32(&bytes)),
        (19_014, 0x3557_A69A),
        "whole-file length and CRC-32"
    );

    // The corpus covers what it claims to.
    for port in [1, 700] {
        let sealed: Vec<_> = got
            .iter()
            .filter(|s| s.0 == port && s.1 == KIND_CHECKPOINTS)
            .collect();
        assert!(sealed.len() >= 4, "port {port}: {} segments", sealed.len());
        let by_bytes = sealed[..sealed.len() - 1].iter().filter(|s| s.2 < 4);
        assert!(by_bytes.count() >= 1, "port {port}: none sealed by size");
    }
    let rtt = got.iter().position(|s| s.1 == KIND_RTT).unwrap();
    let port1 = |s: &SegmentRow| s.0 == 1 && s.1 == KIND_CHECKPOINTS;
    assert!(got[..rtt].iter().any(port1) && got[rtt..].iter().any(port1));
    assert_eq!(
        reader.checkpoint_count(1) + reader.checkpoint_count(700),
        38
    );
}
