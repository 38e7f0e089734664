//! Format guard: fixed-seed archives must keep the exact bytes the writer
//! produces, and archives of the first two format versions, committed as
//! hex fixtures, must still read back to what was written.

use pq_core::control::{Checkpoint, CoverageGap};
use pq_core::metrics::ControlHealth;
use pq_core::params::TimeWindowConfig;
use pq_core::queue_monitor::{Entry, Half, QueueMonitor, QueueMonitorSnapshot, CHUNK_LEVELS};
use pq_core::snapshot::{QueryInterval, TimeWindowSnapshot};
use pq_core::time_windows::{Cell, TimeWindowSet};
use pq_packet::FlowId;
use pq_store::codec::{decode_checkpoint, CodecState};
use pq_store::format::{VERSION, VERSION_V1, VERSION_V2};
use pq_store::{
    DecodeBudget, Recovery, SegmentPolicy, StoreReader, StoreWriter, KIND_CHECKPOINTS, KIND_RTT,
};
use std::io::Cursor;
use std::panic::catch_unwind;

const TW: TimeWindowConfig = TimeWindowConfig {
    m0: 4,
    alpha: 2,
    k: 5,
    t: 3,
};

/// `name hex` lines: [`pinned_archive`], [`framing_archive`] and
/// [`reference_archive`] as the version-1 writer wrote them.
const V1_FIXTURE: &str = include_str!("data/format_pin_v1.hex");
/// The same three and [`window_archive`] as the version-2 writer wrote
/// them.
const V2_FIXTURE: &str = include_str!("data/format_pin_v2.hex");

/// The fixed multiplicative generator every archive draws from.
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
                    let half = self.half();
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

    /// A half of a random flow with the next sequence number.
    fn half(&mut self) -> Half {
        let half = Half {
            flow: FlowId(self.next(50) as u32),
            seq: self.seq,
        };
        self.seq += 1 + self.next(4);
        half
    }
}

/// Every checkpoint a generator pushed, with its port, in push order.
type Pushed = Vec<(u16, Checkpoint)>;

/// 40 checkpoints of two 300-entry monitors each over two ports, five
/// checkpoints a segment.
fn pinned_archive() -> (Vec<u8>, Pushed) {
    let policy = SegmentPolicy {
        checkpoints_per_segment: 5,
        ..SegmentPolicy::default()
    };
    let mut gen = Gen::new();
    let mut w = StoreWriter::new(Vec::new(), TW, policy).unwrap();
    let mut pushed = Vec::new();
    for i in 0..40u64 {
        let cp = gen.checkpoint(i, 90);
        w.push((i % 2) as u16, &cp).unwrap();
        pushed.push(((i % 2) as u16, cp));
    }
    (w.finish().unwrap(), pushed)
}

/// Everything the writer's framing can do, in one file: ports 1 and 700,
/// four checkpoints a segment unless the body passes 2 KiB first (every
/// seventh checkpoint is heavy enough to do that), an RTT segment pushed
/// raw into the middle of port 1's stream (sealing its open segment
/// early), a recorded gap, health counters, and a short last segment a
/// port sealed only by `finish`.
fn framing_archive() -> (Vec<u8>, Pushed) {
    let policy = SegmentPolicy {
        checkpoints_per_segment: 4,
        max_segment_bytes: 2 << 10,
        retain_segments_per_port: None,
    };
    let mut gen = Gen::new();
    let mut w = StoreWriter::new(Vec::new(), TW, policy).unwrap();
    let mut pushed = Vec::new();
    for i in 0..38u64 {
        let port = if i % 2 == 0 { 1 } else { 700 };
        let cp = gen.checkpoint(i, if i % 7 == 3 { 600 } else { 60 });
        w.push(port, &cp).unwrap();
        pushed.push((port, cp));
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
    (w.finish().unwrap(), pushed)
}

/// Levels `rows` of a `len`-level array written with fresh halves.
fn dense(gen: &mut Gen, len: usize, rows: &[usize]) -> Vec<Entry> {
    let mut entries = vec![Entry::default(); len];
    for &level in rows {
        entries[level].inc = gen.half();
    }
    entries
}

/// Every way a monitor slot carries over from one checkpoint to the next,
/// four checkpoints a segment over two ports:
///
/// * port 0 freezes a live four-slot monitor, so an untouched chunk is the
///   previous snapshot's allocation; one slot is rewritten every fourth
///   poll, and every third snapshot is rebuilt from its dense image (equal
///   rows in new allocations);
/// * port 1's two monitors are built from dense arrays, so nothing is
///   shared by pointer: the first never changes; the second's slot 1
///   empties and fills again with the same rows, its length shrinks past
///   slot 2 and grows back, and it vanishes for one checkpoint;
/// * idle polls open every segment, so unchanged slots straddle each
///   segment boundary, where no reference may be written.
fn reference_archive() -> (Vec<u8>, Pushed) {
    let policy = SegmentPolicy {
        checkpoints_per_segment: 4,
        ..SegmentPolicy::default()
    };
    let mut gen = Gen::new();
    let mut w = StoreWriter::new(Vec::new(), TW, policy).unwrap();
    let mut pushed = Vec::new();
    let mut live = QueueMonitor::new(3 * CHUNK_LEVELS + 100, 1);
    for c in 0..4 {
        for at in [7, 300, 901] {
            let level = (c * CHUNK_LEVELS + at).min(live.len() - 1);
            live.on_enqueue(FlowId(c as u32), level as u32, 0);
        }
    }
    let still = dense(&mut gen, 700, &[3, 699]);
    let slot_rows = [10, 500, 1030, 1500, 2050];
    let mut moving = dense(&mut gen, 2100, &slot_rows);
    for i in 0..18u64 {
        if i % 4 == 1 {
            let c = (i as usize / 4) % 4;
            live.on_dequeue(FlowId(9), (c * CHUNK_LEVELS + 40) as u32, 0);
        }
        let mut cp = gen.checkpoint(i, 1);
        let mut frozen = live.freeze();
        if i % 3 == 2 {
            frozen = QueueMonitorSnapshot::from_dense(&frozen.to_dense(), frozen.top);
        }
        cp.queue_monitors = vec![frozen];
        w.push(0, &cp).unwrap();
        pushed.push((0, cp));

        if i == 13 {
            moving[10].dec = gen.half();
        }
        let mut second = moving.clone();
        if i == 5 {
            second[1030] = Entry::default();
            second[1500] = Entry::default();
        }
        second.truncate(if i == 9 { 1600 } else { 2100 });
        let mut cp = gen.checkpoint(i, 1);
        cp.queue_monitors = vec![QueueMonitorSnapshot::from_dense(&still, 0)];
        if i != 15 {
            let top = (second.len() - 1) as u32;
            cp.queue_monitors
                .push(QueueMonitorSnapshot::from_dense(&second, top));
        }
        w.push(1, &cp).unwrap();
        pushed.push((1, cp));
    }
    (w.finish().unwrap(), pushed)
}

/// Every way a time window carries over from one checkpoint to the next,
/// four checkpoints a segment over two ports:
///
/// * port 0 freezes a live window set that records five packets a poll,
///   except every fifth poll, which is idle, so a window no packet reached
///   is the previous snapshot's allocation; every third snapshot is
///   rebuilt from copies of its windows (equal cells in new allocations);
/// * port 1's windows are built from dense arrays: each poll moves one
///   cell's cycle or fills it, empties one and fills one in a random
///   window; poll 7 rewrites every cell of window 0, and window 2 empties
///   at poll 11 (both written whole: more cells changed than remain).
fn window_archive() -> (Vec<u8>, Pushed) {
    let policy = SegmentPolicy {
        checkpoints_per_segment: 4,
        ..SegmentPolicy::default()
    };
    let mut gen = Gen::new();
    let mut w = StoreWriter::new(Vec::new(), TW, policy).unwrap();
    let mut pushed = Vec::new();
    let mut live = TimeWindowSet::new(TW);
    let mut now = 0;
    let cells = TW.cells() as u64;
    let mut dense = vec![vec![Cell::EMPTY; TW.cells()]; usize::from(TW.t)];
    for window in &mut dense {
        for _ in 0..20 {
            window[gen.next(cells) as usize] = fresh_cell(&mut gen, 0);
        }
    }
    for i in 0..18u64 {
        if i % 5 != 4 {
            for _ in 0..5 {
                now += 40 + gen.next(24);
                live.record(FlowId(gen.next(50) as u32), now);
            }
        }
        let mut cp = gen.checkpoint(i, 1);
        cp.windows = live.freeze();
        if i % 3 == 2 {
            let copies = (0..TW.t).map(|w| cp.windows.window(w).to_vec()).collect();
            cp.windows = TimeWindowSnapshot::from_parts(TW, copies, false);
        }
        w.push(0, &cp).unwrap();
        pushed.push((0, cp));

        let moved = &mut dense[0][gen.next(cells) as usize];
        *moved = match *moved == Cell::EMPTY {
            true => fresh_cell(&mut gen, i),
            false => Cell {
                cycle: moved.cycle + 1,
                ..*moved
            },
        };
        dense[0][gen.next(cells) as usize] = Cell::EMPTY;
        let window = gen.next(u64::from(TW.t)) as usize;
        dense[window][gen.next(cells) as usize] = fresh_cell(&mut gen, i);
        if i == 7 {
            for cell in &mut dense[0] {
                *cell = fresh_cell(&mut gen, i);
            }
        }
        if i == 11 {
            dense[2].fill(Cell::EMPTY);
        }
        let mut cp = gen.checkpoint(i, 1);
        cp.windows = TimeWindowSnapshot::from_parts(TW, dense.clone(), false);
        w.push(1, &cp).unwrap();
        pushed.push((1, cp));
    }
    (w.finish().unwrap(), pushed)
}

/// An occupied cell of a random flow in a cycle near `i`.
fn fresh_cell(gen: &mut Gen, i: u64) -> Cell {
    Cell {
        flow: FlowId(gen.next(50) as u32),
        cycle: i + gen.next(3),
    }
}

/// `(port, kind, count, offset, len, body_crc)` of one segment.
type SegmentRow = (u16, u64, u64, u64, u64, u32);

/// The framing archive's segments as the version-1 writer laid them out
/// (a separate frame buffer per seal, slice-by-8 CRC, two-pass window
/// encoder, then framed in place: the same bytes).
const FRAMING_SEGMENTS_V1: &[SegmentRow] = &[
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

/// The three archives' segments as the version-2 writer laid them out.
const PINNED_SEGMENTS_V2: &[SegmentRow] = &[
    (0, 0, 5, 9, 2307, 0x5EE6_98AC),
    (1, 0, 5, 2316, 2055, 0xE8D5_D2E4),
    (0, 0, 5, 4371, 1116, 0x29DE_4EB0),
    (1, 0, 5, 5487, 2746, 0x005E_B19D),
    (0, 0, 5, 8233, 1649, 0x1312_B43E),
    (1, 0, 5, 9882, 2066, 0xE928_CE15),
    (0, 0, 5, 11948, 1995, 0xDE11_5CF9),
    (1, 0, 5, 13943, 2022, 0x0C84_DFCC),
];
const FRAMING_SEGMENTS_V2: &[SegmentRow] = &[
    (1, 0, 4, 9, 1582, 0x5F8E_5F7F),
    (700, 0, 4, 1591, 1682, 0x5699_72F8),
    (1, 0, 2, 3273, 2830, 0xAE3F_7139),
    (700, 0, 4, 6103, 1379, 0x0244_ABCD),
    (1, 0, 3, 7482, 868, 0xCC92_4CDA),
    (1, 1, 17, 8350, 353, 0x18B3_F850),
    (700, 0, 2, 8703, 2200, 0x413A_01C7),
    (1, 0, 4, 10903, 1966, 0x67B3_0380),
    (700, 0, 4, 12869, 965, 0x83D3_856A),
    (1, 0, 4, 13834, 1283, 0x01AD_1CDD),
    (700, 0, 3, 15117, 2167, 0xAAEC_ACA5),
    (1, 0, 2, 17284, 627, 0x46A1_4651),
    (700, 0, 2, 17911, 778, 0x9DCE_B22E),
];
const REFERENCE_SEGMENTS_V2: &[SegmentRow] = &[
    (0, 0, 4, 9, 353, 0x676E_1B6D),
    (1, 0, 4, 362, 233, 0xADD7_AE29),
    (0, 0, 4, 595, 393, 0xFB98_2376),
    (1, 0, 4, 988, 366, 0x3A6D_2E09),
    (0, 0, 4, 1354, 321, 0x6A5A_6F7C),
    (1, 0, 4, 1675, 299, 0x90B2_1503),
    (0, 0, 4, 1974, 325, 0x89A7_FE25),
    (1, 0, 4, 2299, 362, 0xC454_8105),
    (0, 0, 2, 2661, 240, 0xC35F_D8F2),
    (1, 0, 2, 2901, 191, 0xA90B_EF12),
];

/// The four archives' segments as the version-3 writer lays them out. Any
/// drift here, or in the whole-file [`pin`] beside it, is a `.pqa` format
/// change.
const PINNED_SEGMENTS: &[SegmentRow] = &[
    (0, 0, 5, 9, 2307, 0xB9A4_CDEC),
    (1, 0, 5, 2316, 2055, 0x1C9C_FE55),
    (0, 0, 5, 4371, 1116, 0xE14E_D73A),
    (1, 0, 5, 5487, 2746, 0x3F63_B53B),
    (0, 0, 5, 8233, 1649, 0xC1AA_8095),
    (1, 0, 5, 9882, 2066, 0x978E_3A0A),
    (0, 0, 5, 11948, 1995, 0x09AC_23B8),
    (1, 0, 5, 13943, 2022, 0x44ED_F8CA),
];
const FRAMING_SEGMENTS: &[SegmentRow] = &[
    (1, 0, 4, 9, 1582, 0x4227_CB5E),
    (700, 0, 4, 1591, 1682, 0x7556_BF53),
    (1, 0, 2, 3273, 2830, 0x680C_4FC1),
    (700, 0, 4, 6103, 1379, 0x5442_1EEB),
    (1, 0, 3, 7482, 868, 0x3EA8_EB23),
    (1, 1, 17, 8350, 353, 0x18B3_F850),
    (700, 0, 2, 8703, 2200, 0x8617_F873),
    (1, 0, 4, 10903, 1966, 0x1F8A_17B7),
    (700, 0, 4, 12869, 965, 0xA843_C36F),
    (1, 0, 4, 13834, 1283, 0x34DF_A15C),
    (700, 0, 3, 15117, 2167, 0x8AB7_1245),
    (1, 0, 2, 17284, 627, 0x613E_0306),
    (700, 0, 2, 17911, 778, 0x5FAD_5513),
];
const REFERENCE_SEGMENTS: &[SegmentRow] = &[
    (0, 0, 4, 9, 353, 0xE279_688D),
    (1, 0, 4, 362, 233, 0x3CD3_5101),
    (0, 0, 4, 595, 393, 0x5634_35FA),
    (1, 0, 4, 988, 366, 0xF1B6_C035),
    (0, 0, 4, 1354, 321, 0xE1F0_8D74),
    (1, 0, 4, 1675, 299, 0x486A_171C),
    (0, 0, 4, 1974, 325, 0x406F_D4B5),
    (1, 0, 4, 2299, 362, 0x87CD_EF77),
    (0, 0, 2, 2661, 240, 0xDB62_0455),
    (1, 0, 2, 2901, 191, 0xF828_6C08),
];
const WINDOW_SEGMENTS: &[SegmentRow] = &[
    (0, 0, 4, 9, 149, 0xD945_09DD),
    (1, 0, 4, 158, 242, 0xD696_9420),
    (0, 0, 4, 400, 205, 0x8BC3_0A4E),
    (1, 0, 4, 605, 345, 0x1E13_4D24),
    (0, 0, 4, 950, 238, 0x9559_7CD5),
    (1, 0, 4, 1188, 319, 0x55A4_B963),
    (0, 0, 4, 1507, 255, 0x717D_4ADF),
    (1, 0, 4, 1762, 245, 0x858C_E2CA),
    (0, 0, 2, 2007, 216, 0x40D4_FD33),
    (1, 0, 2, 2223, 201, 0x21C7_4B97),
];

/// FNV-1a-64 digests of the whole archives, for [`pin`]: the committed
/// version-1 and version-2 fixtures, then the version-3 writer's output.
const V1_PINNED: u64 = 0x66B5_43D9_FF87_EA22;
const V1_FRAMING: u64 = 0xB510_DBB2_76C0_BB42;
const V1_REFERENCE: u64 = 0xEF12_19A1_270B_CA88;
const V2_PINNED: u64 = 0xDF6D_D1F2_7502_1582;
const V2_FRAMING: u64 = 0x409A_EDC1_A19B_80BB;
const V2_REFERENCE: u64 = 0x9608_9B8E_E7F4_A3F7;
const V2_WINDOWS: u64 = 0x5A49_1B14_D1C3_67B0;
const PINNED: u64 = 0xDF9D_CA1E_4F36_0445;
const FRAMING: u64 = 0x7E47_B69D_38EC_F689;
const REFERENCE: u64 = 0x19EF_8172_783E_E101;
const WINDOWS: u64 = 0x8ADD_0364_0414_B6E0;

fn segment_rows(reader: &StoreReader<Cursor<&Vec<u8>>>) -> Vec<SegmentRow> {
    reader
        .segments()
        .iter()
        .map(|s| (s.port, s.kind, s.count, s.offset, s.len, s.body_crc))
        .collect()
}

/// A whole archive's pin: its length and FNV-1a-64 digest.
///
/// Not its CRC-32: every segment body and the trailer index are followed
/// by their own CRC-32, and the CRC-32 of a message with its CRC-32
/// appended is a constant, so a same-length change inside a body whose
/// CRC is sealed again leaves the whole-file CRC-32 as it was.
fn pin(bytes: &[u8]) -> (usize, u64) {
    let digest = bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    (bytes.len(), digest)
}

/// Assert `bytes` carry the whole-archive pin `expect`.
fn assert_pin(bytes: &[u8], expect: (usize, u64), name: &str) {
    let (len, digest) = pin(bytes);
    assert_eq!(
        (len, digest),
        expect,
        "{name}: whole-file length and FNV-1a-64 (actual ({len}, 0x{digest:016X}))"
    );
}

/// `bytes` open through the trailer, hold exactly the segments `expect`
/// lists and carry the whole-archive pin `whole`.
fn assert_pinned(bytes: &Vec<u8>, expect: &[SegmentRow], whole: (usize, u64), name: &str) {
    let reader = StoreReader::open(Cursor::new(bytes)).unwrap();
    assert_eq!(reader.recovery(), Recovery::Index, "{name}");
    let got = segment_rows(&reader);
    if got != expect {
        for (port, kind, count, offset, len, crc) in &got {
            eprintln!("    ({port}, {kind}, {count}, {offset}, {len}, 0x{crc:08X}),");
        }
        panic!("{name}: segment table drifted (actual rows above)");
    }
    assert_pin(bytes, whole, name);
}

/// Field-by-field equality (`Checkpoint` has no `PartialEq`).
fn same(a: &Checkpoint, b: &Checkpoint) -> bool {
    a.frozen_at == b.frozen_at
        && a.on_demand == b.on_demand
        && a.trigger == b.trigger
        && a.windows.is_filtered() == b.windows.is_filtered()
        && (0..TW.t).all(|w| a.windows.window(w) == b.windows.window(w))
        && a.queue_monitors == b.queue_monitors
}

/// Every port of `bytes` decodes to exactly the checkpoints pushed to it.
fn assert_reads_back(bytes: &Vec<u8>, pushed: &Pushed, name: &str) {
    let mut reader = StoreReader::open(Cursor::new(bytes)).unwrap();
    let mut ports: Vec<u16> = pushed.iter().map(|(p, _)| *p).collect();
    ports.sort_unstable();
    ports.dedup();
    for port in ports {
        let back = reader.read_port(port).unwrap().checkpoints;
        let sent: Vec<&Checkpoint> = pushed
            .iter()
            .filter(|(p, _)| *p == port)
            .map(|(_, cp)| cp)
            .collect();
        assert_eq!(back.len(), sent.len(), "{name} port {port}");
        for (i, (back, sent)) in back.iter().zip(sent).enumerate() {
            assert!(same(back, sent), "{name} port {port} checkpoint {i}");
        }
    }
}

/// The archive `name` of a `name hex` fixture.
fn fixture(lines: &str, name: &str) -> Vec<u8> {
    let line = lines
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .expect("fixture line");
    (0..line.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("fixture lines are hex"))
        .collect()
}

/// The committed version-1 bytes are the ones the version-1 pins
/// described (the reference archive's were captured with them), and they
/// still decode to the generators' checkpoints.
#[test]
fn version_1_archives_still_read() {
    let v1 = |name| fixture(V1_FIXTURE, name);
    let pinned = v1("pinned");
    assert_eq!(pinned[4], VERSION_V1);
    assert_pin(&pinned, (16_165, V1_PINNED), "v1 pinned");
    assert_reads_back(&pinned, &pinned_archive().1, "v1 pinned");

    let framing = v1("framing");
    assert_pinned(
        &framing,
        FRAMING_SEGMENTS_V1,
        (19_014, V1_FRAMING),
        "v1 framing",
    );
    assert_reads_back(&framing, &framing_archive().1, "v1 framing");
    let mut reader = StoreReader::open(Cursor::new(&framing)).unwrap();
    let rtt = reader.raw_segments(1, KIND_RTT);
    assert_eq!(reader.read_raw_body(&rtt[0]).unwrap().len(), 333);

    let reference = v1("reference");
    assert_pin(&reference, (4_361, V1_REFERENCE), "v1 reference");
    assert_reads_back(&reference, &reference_archive().1, "v1 reference");
}

/// The committed version-2 bytes are the ones the version-2 pins
/// described (the window archive's were captured with them), and they
/// still decode to the generators' checkpoints.
#[test]
fn version_2_archives_still_read() {
    let v2 = |name| fixture(V2_FIXTURE, name);
    let pinned = v2("pinned");
    assert_eq!(pinned[4], VERSION_V2);
    let pinned_pin = (16_178, V2_PINNED);
    assert_pinned(&pinned, PINNED_SEGMENTS_V2, pinned_pin, "v2 pinned");
    assert_reads_back(&pinned, &pinned_archive().1, "v2 pinned");

    let framing = v2("framing");
    let framing_pin = (19_030, V2_FRAMING);
    assert_pinned(&framing, FRAMING_SEGMENTS_V2, framing_pin, "v2 framing");
    assert_reads_back(&framing, &framing_archive().1, "v2 framing");

    let reference = v2("reference");
    let reference_pin = (3_331, V2_REFERENCE);
    assert_pinned(
        &reference,
        REFERENCE_SEGMENTS_V2,
        reference_pin,
        "v2 reference",
    );
    assert_reads_back(&reference, &reference_archive().1, "v2 reference");

    let windows = v2("windows");
    assert_eq!(windows[4], VERSION_V2);
    assert_pin(&windows, (5_405, V2_WINDOWS), "v2 windows");
    assert_reads_back(&windows, &window_archive().1, "v2 windows");
}

#[test]
fn archive_bytes_are_pinned() {
    let (bytes, pushed) = pinned_archive();
    assert_eq!(bytes[4], VERSION);
    assert_pinned(&bytes, PINNED_SEGMENTS, (16_179, PINNED), "pinned");
    assert_reads_back(&bytes, &pushed, "pinned");
}

/// A change inside a segment body, its CRC sealed again behind it: the
/// whole-file CRC-32 and the segment table (whose index still carries the
/// old body CRC) pass as before, and only the digest pin sees it.
#[test]
fn a_resealed_body_change_passes_a_crc_pin_and_fails_the_digest_pin() {
    let (mut bytes, _) = pinned_archive();
    let crc_pin = (bytes.len(), pq_store::crc::crc32(&bytes));
    let (start, end, old_crc) = {
        let mut reader = StoreReader::open(Cursor::new(&bytes)).unwrap();
        let meta = reader.segments()[0];
        let body = reader.read_raw_body(&meta).unwrap();
        let end = (meta.offset + meta.len) as usize - 4;
        (end - body.len(), end, meta.body_crc)
    };
    bytes[(start + end) / 2] ^= 0x5A;
    let crc = pq_store::crc::crc32(&bytes[start..end]);
    bytes[end..end + 4].copy_from_slice(&crc.to_le_bytes());
    assert_ne!(crc, old_crc, "the body changed");

    let reader = StoreReader::open(Cursor::new(&bytes)).unwrap();
    assert_eq!(segment_rows(&reader), PINNED_SEGMENTS);
    assert_eq!((bytes.len(), pq_store::crc::crc32(&bytes)), crc_pin);
    assert_ne!(pin(&bytes), (16_179, PINNED));
}

#[test]
fn framing_archive_is_pinned_segment_by_segment() {
    let (bytes, pushed) = framing_archive();
    assert_pinned(&bytes, FRAMING_SEGMENTS, (19_032, FRAMING), "framing");
    assert_reads_back(&bytes, &pushed, "framing");

    // The corpus covers what it claims to.
    let reader = StoreReader::open(Cursor::new(&bytes)).unwrap();
    let got = segment_rows(&reader);
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

/// For each checkpoint segment of `bytes`, in file order: whether each
/// checkpoint refers to its predecessor — a monitor-slot reference or a
/// window patch — found by decoding it once more as if it had none.
fn references(bytes: &Vec<u8>) -> Vec<(u16, Vec<bool>)> {
    let mut reader = StoreReader::open(Cursor::new(bytes)).unwrap();
    let metas = reader.segments().to_vec();
    let mut out = Vec::new();
    for meta in metas.iter().filter(|m| m.kind == KIND_CHECKPOINTS) {
        let body = reader.read_raw_body(meta).unwrap();
        let (mut cursor, mut state) = (body.as_slice(), CodecState::default());
        let mut budget = DecodeBudget::default();
        let mut prev: Option<Checkpoint> = None;
        let mut refers = Vec::new();
        for _ in 0..meta.count {
            let (mut alone, mut alone_state) = (cursor, state);
            let standalone = decode_checkpoint(
                &mut alone,
                &TW,
                VERSION,
                &mut alone_state,
                &mut DecodeBudget::default(),
                None,
            );
            let cp = decode_checkpoint(
                &mut cursor,
                &TW,
                VERSION,
                &mut state,
                &mut budget,
                prev.as_ref(),
            )
            .unwrap();
            refers.push(standalone.is_err());
            prev = Some(cp);
        }
        assert!(cursor.is_empty());
        out.push((meta.port, refers));
    }
    out
}

#[test]
fn reference_archive_is_pinned_and_refers_within_segments_only() {
    let (bytes, pushed) = reference_archive();
    assert_pinned(&bytes, REFERENCE_SEGMENTS, (3_331, REFERENCE), "reference");
    assert_reads_back(&bytes, &pushed, "reference");

    let segments = references(&bytes);
    assert_eq!(segments.len(), 2 * 5);
    for (port, refers) in &segments {
        assert!(!refers[0], "port {port}: a segment opens with a reference");
        assert!(
            refers[1..].iter().all(|r| *r),
            "port {port}: a later checkpoint wrote every slot whole: {refers:?}"
        );
    }
    // Under a version-1 header the same bytes are refused, segment by
    // segment, never misread.
    let mut relabelled = bytes.clone();
    relabelled[4] = VERSION_V1;
    let mut reader = StoreReader::open(Cursor::new(&relabelled)).unwrap();
    for port in [0, 1] {
        assert_eq!(reader.decodable_checkpoints(port), 0, "port {port}");
    }
}

#[test]
fn window_archive_is_pinned_and_patches_within_segments_only() {
    let (bytes, pushed) = window_archive();
    assert_pinned(&bytes, WINDOW_SEGMENTS, (2_663, WINDOWS), "windows");
    assert_reads_back(&bytes, &pushed, "windows");
    // Its monitors are empty, so what refers back is a window patch.
    let segments = references(&bytes);
    assert_eq!(segments.len(), 2 * 5);
    for (port, refers) in &segments {
        assert!(!refers[0], "port {port}: a segment opens with a patch");
    }
    let patched = segments
        .iter()
        .map(|(_, r)| r.iter().filter(|r| **r).count());
    assert!(patched.sum::<usize>() >= 20);
    // Patches shrink it well below what version 2 wrote.
    let v2 = fixture(V2_FIXTURE, "windows");
    assert!(
        bytes.len() * 10 < v2.len() * 8,
        "{} vs {}",
        bytes.len(),
        v2.len()
    );
}

/// No archive opens a segment with a patch or a slot reference: a
/// segment's first checkpoint decodes on its own.
#[test]
fn every_segment_opens_whole() {
    for (name, (bytes, _)) in [
        ("pinned", pinned_archive()),
        ("framing", framing_archive()),
        ("reference", reference_archive()),
        ("windows", window_archive()),
    ] {
        for (port, refers) in references(&bytes) {
            assert!(
                !refers[0],
                "{name} port {port}: a segment opens referring back"
            );
        }
    }
}

/// The version-3 window archive with each byte flipped in turn (all
/// eight bits): reading every port answers or errs and never panics. A
/// flip inside a body only fails its CRC, so the bodies of the window and
/// reference archives are flipped past it too, and decoded directly.
#[test]
fn every_single_byte_flip_decodes_or_errs() {
    let mut bytes = window_archive().0;
    for i in 0..bytes.len() {
        bytes[i] ^= 0xff;
        catch_unwind(|| {
            if let Ok(mut reader) = StoreReader::open(Cursor::new(&bytes)) {
                for port in [0, 1] {
                    let _ = reader.read_port(port);
                }
            }
        })
        .unwrap_or_else(|_| panic!("byte {i} flipped panicked"));
        bytes[i] ^= 0xff;
    }

    for (name, (bytes, _)) in [
        ("reference", reference_archive()),
        ("windows", window_archive()),
    ] {
        let mut reader = StoreReader::open(Cursor::new(&bytes)).unwrap();
        let metas = reader.segments().to_vec();
        let (mut flips, mut refused) = (0, 0);
        for meta in metas.iter().filter(|m| m.kind == KIND_CHECKPOINTS) {
            let mut body = reader.read_raw_body(meta).unwrap();
            for i in 0..body.len() {
                body[i] ^= 0xff;
                let decoded = catch_unwind(|| decode_all(&body, meta.count)).unwrap_or_else(|_| {
                    panic!(
                        "`{name}` segment at {} with byte {i} flipped panicked",
                        meta.offset
                    )
                });
                refused += usize::from(decoded.is_err());
                flips += 1;
                body[i] ^= 0xff;
            }
        }
        assert!(
            refused > flips / 2,
            "`{name}`: {refused} of {flips} flips refused"
        );
    }
}

/// Decode `count` checkpoints of one body, each after the one before.
fn decode_all(body: &[u8], count: u64) -> std::io::Result<Vec<Checkpoint>> {
    let (mut cursor, mut state) = (body, CodecState::default());
    let mut budget = DecodeBudget::default();
    let mut cps: Vec<Checkpoint> = Vec::new();
    for _ in 0..count {
        let cp = decode_checkpoint(
            &mut cursor,
            &TW,
            VERSION,
            &mut state,
            &mut budget,
            cps.last(),
        )?;
        cps.push(cp);
    }
    Ok(cps)
}
