//! Checkpoint ⇄ bytes: the sparse, delta-compressed body encoding of a
//! `.pqa` segment.
//!
//! The encoding leans on two structural facts of PrintQueue register
//! state:
//!
//! * time-window cells are *mostly empty* outside congestion epochs, and
//!   an empty cell has exactly one canonical form
//!   ([`Cell::EMPTY`]: flow = `FlowId::NONE`, cycle = `u64::MAX`), so
//!   windows are stored as sorted occupied-index runs;
//! * a queue-monitor half is empty iff `seq == 0` (with the canonical
//!   `FlowId::NONE` flow), so the sparse stack is stored the same way.
//!
//! Monotone quantities (freeze times, cell indices, cycle IDs, stack
//! sequence numbers) are delta-coded with zigzag varints. Deltas use
//! *wrapping* arithmetic so every `u64` value — including the
//! `u64::MAX` sentinels — round-trips losslessly.
//!
//! Decoding never trusts a length from the wire: counts are bounded by
//! the structure they index into, and bulk allocations are charged
//! against a [`DecodeBudget`] so an adversarial header cannot balloon
//! memory.

use crate::format::invalid;
use crate::varint;
use pq_core::control::Checkpoint;
use pq_core::params::TimeWindowConfig;
use pq_core::queue_monitor::{Entry, Half, QueueMonitorSnapshot, Row};
use pq_core::snapshot::{QueryInterval, TimeWindowSnapshot};
use pq_core::time_windows::Cell;
use pq_packet::FlowId;
use std::io;
use std::sync::Arc;

const FLAG_ON_DEMAND: u8 = 1 << 0;
const FLAG_TRIGGER: u8 = 1 << 1;
const FLAG_FILTERED: u8 = 1 << 2;
const HALF_INC: u8 = 1 << 0;
const HALF_DEC: u8 = 1 << 1;

/// Queue monitors per checkpoint are small (one per egress queue); cap
/// the count so a corrupt body cannot spin the decoder.
const MAX_MONITORS: usize = 1024;

/// Allocation budget for decoding untrusted bodies.
///
/// Every bulk allocation (window cell arrays, monitor entry arrays) is
/// charged here *before* the memory is reserved; exceeding the budget is
/// an `InvalidData` error, not an OOM. The default (64 MiB) comfortably
/// fits any configuration the simulator produces (a maxed-out k = 24,
/// T = 4 snapshot is ~1 GiB and is rejected — real deployments keep
/// k ≤ 16 per §4.1's SRAM budget).
#[derive(Debug, Clone, Copy)]
pub struct DecodeBudget {
    remaining: u64,
}

impl DecodeBudget {
    /// Budget with `bytes` of allocation headroom.
    pub fn new(bytes: u64) -> DecodeBudget {
        DecodeBudget { remaining: bytes }
    }

    /// Charge `bytes`; fails once the budget is exhausted.
    pub fn charge(&mut self, bytes: u64) -> io::Result<()> {
        if bytes > self.remaining {
            return Err(invalid("decode allocation budget exhausted"));
        }
        self.remaining -= bytes;
        Ok(())
    }
}

impl Default for DecodeBudget {
    fn default() -> Self {
        DecodeBudget::new(64 << 20)
    }
}

/// Shared encoder/decoder state: the freeze-time delta chain within one
/// segment body.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecState {
    prev_frozen: Option<u64>,
}

/// What the encoder last wrote for each queue-monitor chunk of one port's
/// checkpoint stream, so a chunk the next checkpoint shares with the
/// previous one ([`QueueMonitor::freeze`]) is copied, not
/// re-encoded. It outlives segment rotation: nothing in it depends on the
/// segment.
///
/// A row's bytes depend on the row and on its predecessor's level and last
/// sequence number (the two delta chains), so everything after a chunk's
/// first row — the *tail* — is a function of the chunk alone, as are the
/// chain values the chunk leaves behind. Both are kept beside the `Arc`
/// they were computed from; a chunk is recognised by `Arc::ptr_eq`, and
/// because the memo holds that `Arc` the allocation cannot be freed and
/// its address handed to different rows.
///
/// [`QueueMonitor::freeze`]: pq_core::queue_monitor::QueueMonitor::freeze
#[derive(Default)]
pub struct EncodeMemo {
    /// `[monitor][chunk slot]`, grown on demand.
    monitors: Vec<Vec<Option<ChunkMemo>>>,
}

struct ChunkMemo {
    rows: Arc<[Row]>,
    tail: Vec<u8>,
    /// The level and sequence chains after the chunk's last row.
    end: (Option<u64>, Option<u64>),
}

fn put_delta_u64(out: &mut Vec<u8>, prev: &mut Option<u64>, value: u64) {
    match *prev {
        None => varint::put_u64(out, value),
        Some(p) => varint::put_i64(out, value.wrapping_sub(p) as i64),
    }
    *prev = Some(value);
}

fn read_delta_u64(cursor: &mut &[u8], prev: &mut Option<u64>) -> io::Result<u64> {
    let value = match *prev {
        None => varint::read_u64(cursor)?,
        Some(p) => p.wrapping_add(varint::read_i64(cursor)? as u64),
    };
    *prev = Some(value);
    Ok(value)
}

/// Append one occupied queue-monitor row, coded against the level chain
/// (restarting per monitor) and the sequence chain (one per checkpoint).
/// A row always has a non-default half — a snapshot keeps no row for a
/// default entry — so it always advances both.
fn put_row(out: &mut Vec<u8>, prev_idx: &mut Option<u64>, prev_seq: &mut Option<u64>, row: &Row) {
    put_delta_u64(out, prev_idx, u64::from(row.level()));
    let entry = row.entry();
    let mut halves = 0u8;
    if entry.inc != Half::default() {
        halves |= HALF_INC;
    }
    if entry.dec != Half::default() {
        halves |= HALF_DEC;
    }
    out.push(halves);
    for half in [&entry.inc, &entry.dec] {
        if *half == Half::default() {
            continue;
        }
        varint::put_u64(out, u64::from(half.flow.0));
        put_delta_u64(out, prev_seq, half.seq);
    }
}

/// Append one checkpoint to `out`.
///
/// Fails with `InvalidInput` if the checkpoint's window configuration
/// disagrees with the store's file header — a `.pqa` file holds exactly
/// one register geometry.
pub fn encode_checkpoint(
    out: &mut Vec<u8>,
    tw: &TimeWindowConfig,
    state: &mut CodecState,
    memo: &mut EncodeMemo,
    cp: &Checkpoint,
) -> io::Result<()> {
    if cp.windows.config() != tw {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "checkpoint window config differs from store header",
        ));
    }
    put_delta_u64(out, &mut state.prev_frozen, cp.frozen_at);

    let mut flags = 0u8;
    if cp.on_demand {
        flags |= FLAG_ON_DEMAND;
    }
    if cp.trigger.is_some() {
        flags |= FLAG_TRIGGER;
    }
    if cp.windows.is_filtered() {
        flags |= FLAG_FILTERED;
    }
    out.push(flags);
    if let Some(trigger) = cp.trigger {
        varint::put_u64(out, trigger.from);
        varint::put_u64(out, trigger.to.saturating_sub(trigger.from));
    }

    for w in 0..tw.t {
        // One walk over the cells: the occupied count goes in front of the
        // runs once it is known, which moves the few KB just written instead
        // of reading the whole window a second time.
        let runs_at = out.len();
        let mut occupied = 0u64;
        let mut prev_idx: Option<u64> = None;
        let mut prev_cycle: Option<u64> = None;
        for (idx, cell) in cp.windows.window(w).iter().enumerate() {
            if *cell == Cell::EMPTY {
                continue;
            }
            occupied += 1;
            // Indices are emitted ascending, so deltas are strictly
            // positive after the first.
            put_delta_u64(out, &mut prev_idx, idx as u64);
            varint::put_u64(out, u64::from(cell.flow.0));
            put_delta_u64(out, &mut prev_cycle, cell.cycle);
        }
        varint::put_u64(out, occupied);
        out[runs_at..].rotate_right(varint::len_u64(occupied));
    }

    varint::put_u64(out, cp.queue_monitors.len() as u64);
    if memo.monitors.len() < cp.queue_monitors.len() {
        memo.monitors.resize_with(cp.queue_monitors.len(), Vec::new);
    }
    let mut prev_seq: Option<u64> = None;
    for (monitor, slots) in cp.queue_monitors.iter().zip(&mut memo.monitors) {
        varint::put_u64(out, monitor.len() as u64);
        varint::put_u64(out, u64::from(monitor.top));
        varint::put_u64(out, monitor.occupied_len() as u64);
        if slots.len() < monitor.chunks().len() {
            slots.resize_with(monitor.chunks().len(), || None);
        }
        let mut prev_idx: Option<u64> = None;
        for (chunk, slot) in monitor.chunks().iter().zip(slots) {
            let Some(chunk) = chunk else { continue };
            let Some((first, rest)) = chunk.split_first() else {
                continue;
            };
            put_row(out, &mut prev_idx, &mut prev_seq, first);
            match slot {
                Some(known) if Arc::ptr_eq(&known.rows, chunk) => {
                    out.extend_from_slice(&known.tail);
                    (prev_idx, prev_seq) = known.end;
                }
                _ => {
                    let tail_at = out.len();
                    for row in rest {
                        put_row(out, &mut prev_idx, &mut prev_seq, row);
                    }
                    *slot = Some(ChunkMemo {
                        rows: Arc::clone(chunk),
                        tail: out[tail_at..].to_vec(),
                        end: (prev_idx, prev_seq),
                    });
                }
            }
        }
    }
    Ok(())
}

fn read_flow(cursor: &mut &[u8]) -> io::Result<FlowId> {
    let raw = varint::read_u64(cursor)?;
    if raw > u64::from(u32::MAX) {
        return Err(invalid("flow id out of u32 range"));
    }
    Ok(FlowId(raw as u32))
}

fn read_flags_byte(cursor: &mut &[u8]) -> io::Result<u8> {
    let Some((&byte, rest)) = cursor.split_first() else {
        return Err(invalid("truncated flags byte"));
    };
    *cursor = rest;
    Ok(byte)
}

/// Decode one checkpoint from the cursor.
pub fn decode_checkpoint(
    cursor: &mut &[u8],
    tw: &TimeWindowConfig,
    state: &mut CodecState,
    budget: &mut DecodeBudget,
) -> io::Result<Checkpoint> {
    let frozen_at = read_delta_u64(cursor, &mut state.prev_frozen)?;
    let flags = read_flags_byte(cursor)?;
    if flags & !(FLAG_ON_DEMAND | FLAG_TRIGGER | FLAG_FILTERED) != 0 {
        return Err(invalid("unknown checkpoint flags"));
    }
    let trigger = if flags & FLAG_TRIGGER != 0 {
        let from = varint::read_u64(cursor)?;
        let len = varint::read_u64(cursor)?;
        Some(QueryInterval::new(from, from.saturating_add(len)))
    } else {
        None
    };

    let cells = tw.cells();
    let t = usize::from(tw.t);
    budget.charge((t as u64) * (cells as u64) * std::mem::size_of::<Cell>() as u64)?;
    let mut windows = Vec::with_capacity(t);
    for _ in 0..t {
        let mut window = vec![Cell::EMPTY; cells];
        let occupied = varint::read_len(cursor, cells)?;
        let mut prev_idx: Option<u64> = None;
        let mut prev_cycle: Option<u64> = None;
        let mut last_idx: Option<usize> = None;
        for _ in 0..occupied {
            let idx = read_delta_u64(cursor, &mut prev_idx)?;
            if idx >= cells as u64 || last_idx.is_some_and(|l| idx as usize <= l) {
                return Err(invalid("cell index out of order or out of range"));
            }
            last_idx = Some(idx as usize);
            let flow = read_flow(cursor)?;
            let cycle = read_delta_u64(cursor, &mut prev_cycle)?;
            window[idx as usize] = Cell { flow, cycle };
        }
        windows.push(window);
    }
    let windows = TimeWindowSnapshot::from_parts(*tw, windows, flags & FLAG_FILTERED != 0);

    let n_monitors = varint::read_len(cursor, MAX_MONITORS)?;
    let mut queue_monitors = Vec::with_capacity(n_monitors);
    let mut prev_seq: Option<u64> = None;
    for _ in 0..n_monitors {
        // A monitor entry costs at least one wire byte when occupied, but
        // the array length itself is untrusted — charge it up front.
        let n_entries = varint::read_len(cursor, u32::MAX as usize)?;
        budget.charge(n_entries as u64 * std::mem::size_of::<Entry>() as u64)?;
        let top = varint::read_len(cursor, u32::MAX as usize)? as u32;
        if n_entries > 0 && u64::from(top) >= n_entries as u64 {
            return Err(invalid("queue-monitor top beyond entry array"));
        }
        let mut entries = vec![Entry::default(); n_entries];
        let occupied = varint::read_len(cursor, n_entries)?;
        let mut prev_idx: Option<u64> = None;
        let mut last_idx: Option<usize> = None;
        for _ in 0..occupied {
            let idx = read_delta_u64(cursor, &mut prev_idx)?;
            if idx >= n_entries as u64 || last_idx.is_some_and(|l| idx as usize <= l) {
                return Err(invalid("monitor entry index out of order or out of range"));
            }
            last_idx = Some(idx as usize);
            let halves = read_flags_byte(cursor)?;
            if halves & !(HALF_INC | HALF_DEC) != 0 || halves == 0 {
                return Err(invalid("invalid monitor half flags"));
            }
            let mut entry = Entry::default();
            if halves & HALF_INC != 0 {
                entry.inc = Half {
                    flow: read_flow(cursor)?,
                    seq: read_delta_u64(cursor, &mut prev_seq)?,
                };
            }
            if halves & HALF_DEC != 0 {
                entry.dec = Half {
                    flow: read_flow(cursor)?,
                    seq: read_delta_u64(cursor, &mut prev_seq)?,
                };
            }
            entries[idx as usize] = entry;
        }
        queue_monitors.push(QueueMonitorSnapshot::from_dense(&entries, top));
    }

    Ok(Checkpoint {
        frozen_at,
        on_demand: flags & FLAG_ON_DEMAND != 0,
        trigger,
        windows,
        queue_monitors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_core::queue_monitor::QueueMonitor;
    use proptest::prelude::*;

    fn sample_checkpoint(tw: &TimeWindowConfig, frozen_at: u64) -> Checkpoint {
        let cells = tw.cells();
        let mut windows = vec![vec![Cell::EMPTY; cells]; usize::from(tw.t)];
        windows[0][1] = Cell {
            flow: FlowId(42),
            cycle: 7,
        };
        windows[0][cells - 1] = Cell {
            flow: FlowId(9),
            cycle: 8,
        };
        windows[1][0] = Cell {
            flow: FlowId(1),
            cycle: 0,
        };
        let mut entries = vec![Entry::default(); 8];
        entries[0] = Entry {
            inc: Half {
                flow: FlowId(42),
                seq: 3,
            },
            dec: Half::default(),
        };
        entries[5] = Entry {
            inc: Half {
                flow: FlowId(7),
                seq: 10,
            },
            dec: Half {
                flow: FlowId(8),
                seq: 11,
            },
        };
        Checkpoint {
            frozen_at,
            on_demand: frozen_at.is_multiple_of(2),
            trigger: frozen_at
                .is_multiple_of(2)
                .then(|| QueryInterval::new(5, frozen_at)),
            windows: TimeWindowSnapshot::from_parts(*tw, windows, false),
            queue_monitors: vec![QueueMonitorSnapshot::from_dense(&entries, 5)],
        }
    }

    #[test]
    fn roundtrip_sequence() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let cps: Vec<_> = [100u64, 250, 260, 1000]
            .iter()
            .map(|&t| sample_checkpoint(&tw, t))
            .collect();
        let mut buf = Vec::new();
        let (mut enc, mut memo) = (CodecState::default(), EncodeMemo::default());
        for cp in &cps {
            encode_checkpoint(&mut buf, &tw, &mut enc, &mut memo, cp).unwrap();
        }
        let mut cursor = buf.as_slice();
        let mut dec = CodecState::default();
        let mut budget = DecodeBudget::default();
        for cp in &cps {
            let back = decode_checkpoint(&mut cursor, &tw, &mut dec, &mut budget).unwrap();
            assert_eq!(back.frozen_at, cp.frozen_at);
            assert_eq!(back.on_demand, cp.on_demand);
            assert_eq!(back.trigger, cp.trigger);
            assert_eq!(back.queue_monitors, cp.queue_monitors);
            for w in 0..tw.t {
                assert_eq!(back.windows.window(w), cp.windows.window(w));
            }
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn sentinel_values_roundtrip() {
        // Wrapping deltas must survive u64::MAX cycles and huge seqs.
        let tw = TimeWindowConfig::new(4, 2, 2, 2);
        let mut windows = vec![vec![Cell::EMPTY; tw.cells()]; 2];
        windows[0][0] = Cell {
            flow: FlowId(0),
            cycle: u64::MAX - 1,
        };
        windows[0][1] = Cell {
            flow: FlowId(u32::MAX - 1),
            cycle: 0,
        };
        let cp = Checkpoint {
            frozen_at: u64::MAX / 2,
            on_demand: false,
            trigger: None,
            windows: TimeWindowSnapshot::from_parts(tw, windows, true),
            queue_monitors: vec![],
        };
        let buf = encode_one(&tw, &cp);
        let mut cursor = buf.as_slice();
        let back = decode_checkpoint(
            &mut cursor,
            &tw,
            &mut CodecState::default(),
            &mut DecodeBudget::default(),
        )
        .unwrap();
        assert_eq!(back.windows.window(0), cp.windows.window(0));
        assert!(back.windows.is_filtered());
    }

    /// A checkpoint whose one monitor has `rows` occupied levels out of
    /// `len`, every third with both halves written.
    fn many_row_checkpoint(tw: &TimeWindowConfig, len: usize, rows: usize) -> Checkpoint {
        let mut entries = vec![Entry::default(); len];
        for i in 0..rows {
            let half = |seq| Half {
                flow: FlowId((i % 97) as u32),
                seq,
            };
            let e = &mut entries[i * (len / rows)];
            e.inc = half(2 * i as u64 + 1);
            if i % 3 == 0 {
                e.dec = half(2 * i as u64 + 2);
            }
        }
        let mut cp = sample_checkpoint(tw, 501);
        cp.queue_monitors = vec![QueueMonitorSnapshot::from_dense(&entries, len as u32 - 1)];
        cp
    }

    #[test]
    fn truncation_and_garbage_never_panic() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        for cp in [
            sample_checkpoint(&tw, 500),
            many_row_checkpoint(&tw, 32 * 1024, 3_000),
        ] {
            truncate_and_flip(&tw, &cp);
        }
    }

    fn truncate_and_flip(tw: &TimeWindowConfig, cp: &Checkpoint) {
        let tw = *tw;
        let buf = encode_one(&tw, cp);
        for cut in 0..buf.len() {
            let mut cursor = &buf[..cut];
            let _ = decode_checkpoint(
                &mut cursor,
                &tw,
                &mut CodecState::default(),
                &mut DecodeBudget::default(),
            );
        }
        for i in 0..buf.len() {
            let mut flipped = buf.clone();
            flipped[i] ^= 0x40;
            let mut cursor = flipped.as_slice();
            let _ = decode_checkpoint(
                &mut cursor,
                &tw,
                &mut CodecState::default(),
                &mut DecodeBudget::default(),
            );
        }
    }

    #[test]
    fn budget_bounds_allocation() {
        let tw = TimeWindowConfig::new(4, 2, 12, 4);
        let cp = Checkpoint {
            frozen_at: 1,
            on_demand: false,
            trigger: None,
            windows: TimeWindowSnapshot::from_parts(
                tw,
                vec![vec![Cell::EMPTY; tw.cells()]; 4],
                false,
            ),
            queue_monitors: vec![],
        };
        let buf = encode_one(&tw, &cp);
        let mut cursor = buf.as_slice();
        let mut tiny = DecodeBudget::new(1024);
        let err =
            decode_checkpoint(&mut cursor, &tw, &mut CodecState::default(), &mut tiny).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn config_mismatch_rejected_on_encode() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let other = TimeWindowConfig::new(4, 2, 5, 3);
        let cp = sample_checkpoint(&tw, 10);
        let mut buf = Vec::new();
        let err = encode_checkpoint(
            &mut buf,
            &other,
            &mut CodecState::default(),
            &mut EncodeMemo::default(),
            &cp,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    fn encode_one(tw: &TimeWindowConfig, cp: &Checkpoint) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_checkpoint(
            &mut buf,
            tw,
            &mut CodecState::default(),
            &mut EncodeMemo::default(),
            cp,
        )
        .unwrap();
        buf
    }

    fn decode_one(
        bytes: &[u8],
        tw: &TimeWindowConfig,
        budget: &mut DecodeBudget,
    ) -> io::Result<Checkpoint> {
        let mut cursor = bytes;
        decode_checkpoint(&mut cursor, tw, &mut CodecState::default(), budget)
    }

    /// Byte offset of the first monitor's occupied-count varint in an
    /// encoding of `cp` (it follows the monitor count, length and top).
    fn occupied_count_offset(tw: &TimeWindowConfig, cp: &Checkpoint) -> usize {
        let mut no_monitors = cp.clone();
        no_monitors.queue_monitors.clear();
        let mut prefix = encode_one(tw, &no_monitors);
        prefix.pop(); // the zero monitor count
        varint::put_u64(&mut prefix, cp.queue_monitors.len() as u64);
        varint::put_u64(&mut prefix, cp.queue_monitors[0].len() as u64);
        varint::put_u64(&mut prefix, u64::from(cp.queue_monitors[0].top));
        prefix.len()
    }

    #[test]
    fn occupied_count_beyond_the_array_is_rejected() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let mut cp = sample_checkpoint(&tw, 501);
        cp.queue_monitors = vec![QueueMonitorSnapshot::from_dense(&[Entry::default(); 8], 0)];
        let at = occupied_count_offset(&tw, &cp);
        let mut bytes = encode_one(&tw, &cp);
        assert_eq!(bytes.len(), at + 1, "empty monitor ends at its zero count");
        bytes.truncate(at);
        varint::put_u64(&mut bytes, 9); // nine occupied rows of an 8-entry array
        bytes.extend(std::iter::repeat_n(1u8, 64));
        assert!(decode_one(&bytes, &tw, &mut DecodeBudget::default()).is_err());
    }

    #[test]
    fn tiny_budget_rejects_a_many_row_monitor() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let cp = many_row_checkpoint(&tw, 32 * 1024, 3_000);
        let bytes = encode_one(&tw, &cp);
        let windows = tw.cells() as u64 * 3 * std::mem::size_of::<Cell>() as u64;
        // The decoder still materialises the whole array, so that is what
        // it charges, however few rows are occupied.
        let array = 32 * 1024 * std::mem::size_of::<Entry>() as u64;
        let err = decode_one(&bytes, &tw, &mut DecodeBudget::new(windows + array - 1)).unwrap_err();
        assert!(err.to_string().contains("budget exhausted"), "{err}");
        let back = decode_one(&bytes, &tw, &mut DecodeBudget::new(windows + array)).unwrap();
        assert_eq!(back.queue_monitors, cp.queue_monitors);
    }

    #[test]
    fn default_valued_row_on_the_wire_leaves_no_phantom() {
        // A writer that spelled out an empty half (flow NONE, sequence 0)
        // describes the default entry, which the sparse snapshot must not
        // keep a row for.
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let mut cp = sample_checkpoint(&tw, 501);
        cp.queue_monitors = vec![QueueMonitorSnapshot::from_dense(&[Entry::default(); 8], 5)];
        let at = occupied_count_offset(&tw, &cp);
        let mut bytes = encode_one(&tw, &cp);
        bytes.truncate(at);
        varint::put_u64(&mut bytes, 1); // one occupied row…
        varint::put_u64(&mut bytes, 3); // …at level 3…
        bytes.push(HALF_INC); // …with an increase half…
        varint::put_u64(&mut bytes, u64::from(FlowId::NONE.0)); // …of no flow…
        varint::put_u64(&mut bytes, 0); // …and sequence 0.
        let back = decode_one(&bytes, &tw, &mut DecodeBudget::default()).unwrap();
        assert_eq!(back.queue_monitors[0].occupied_len(), 0);
        assert_eq!(back.queue_monitors, cp.queue_monitors);
        assert_eq!(encode_one(&tw, &back), encode_one(&tw, &cp));
    }

    /// The encoder as it ran over dense snapshots: every monitor array
    /// scanned once to count and once to emit, every varint through
    /// `Write`, no memo. Kept as the byte-for-byte reference for the row
    /// walk and for the chunk memo.
    fn encode_checkpoint_dense(
        out: &mut Vec<u8>,
        tw: &TimeWindowConfig,
        state: &mut CodecState,
        cp: &Checkpoint,
    ) {
        fn delta(out: &mut Vec<u8>, prev: &mut Option<u64>, value: u64) {
            match *prev {
                None => varint::write_u64(out, value).unwrap(),
                Some(p) => varint::write_i64(out, value.wrapping_sub(p) as i64).unwrap(),
            }
            *prev = Some(value);
        }
        delta(out, &mut state.prev_frozen, cp.frozen_at);
        out.push(
            (u8::from(cp.on_demand) * FLAG_ON_DEMAND)
                | (u8::from(cp.trigger.is_some()) * FLAG_TRIGGER)
                | (u8::from(cp.windows.is_filtered()) * FLAG_FILTERED),
        );
        if let Some(trigger) = cp.trigger {
            varint::write_u64(out, trigger.from).unwrap();
            varint::write_u64(out, trigger.to.saturating_sub(trigger.from)).unwrap();
        }
        for w in 0..tw.t {
            let cells = cp.windows.window(w);
            let occupied = cells.iter().filter(|c| **c != Cell::EMPTY).count();
            varint::write_u64(out, occupied as u64).unwrap();
            let (mut prev_idx, mut prev_cycle) = (None, None);
            for (idx, cell) in cells.iter().enumerate() {
                if *cell != Cell::EMPTY {
                    delta(out, &mut prev_idx, idx as u64);
                    varint::write_u64(out, u64::from(cell.flow.0)).unwrap();
                    delta(out, &mut prev_cycle, cell.cycle);
                }
            }
        }
        varint::write_u64(out, cp.queue_monitors.len() as u64).unwrap();
        let mut prev_seq = None;
        for monitor in &cp.queue_monitors {
            let entries = monitor.to_dense();
            varint::write_u64(out, entries.len() as u64).unwrap();
            varint::write_u64(out, u64::from(monitor.top)).unwrap();
            let occupied = entries.iter().filter(|e| **e != Entry::default()).count();
            varint::write_u64(out, occupied as u64).unwrap();
            let mut prev_idx = None;
            for (idx, entry) in entries.iter().enumerate() {
                if *entry == Entry::default() {
                    continue;
                }
                delta(out, &mut prev_idx, idx as u64);
                out.push(
                    (u8::from(entry.inc != Half::default()) * HALF_INC)
                        | (u8::from(entry.dec != Half::default()) * HALF_DEC),
                );
                for half in [&entry.inc, &entry.dec] {
                    if *half != Half::default() {
                        varint::write_u64(out, u64::from(half.flow.0)).unwrap();
                        delta(out, &mut prev_seq, half.seq);
                    }
                }
            }
        }
    }

    #[test]
    fn window_count_lands_in_front_of_its_runs_at_every_varint_width() {
        // 0, 1-, 2- and 3-byte occupied counts, the last a full window.
        let tw = TimeWindowConfig::new(4, 2, 14, 2);
        for occupied in [0usize, 1, 127, 128, 300, 16_383, 16_384] {
            let mut windows = vec![vec![Cell::EMPTY; tw.cells()]; 2];
            for (w, window) in windows.iter_mut().enumerate() {
                let stride = if w == 0 {
                    1
                } else {
                    tw.cells() / occupied.max(1)
                };
                for i in 0..occupied {
                    window[i * stride] = Cell {
                        flow: FlowId(i as u32 % 11),
                        cycle: (i / 3) as u64,
                    };
                }
            }
            let mut cp = sample_checkpoint(&TimeWindowConfig::new(4, 2, 4, 3), 77);
            cp.windows = TimeWindowSnapshot::from_parts(tw, windows, false);
            let mut dense = Vec::new();
            encode_checkpoint_dense(&mut dense, &tw, &mut CodecState::default(), &cp);
            let bytes = encode_one(&tw, &cp);
            assert!(bytes == dense, "{occupied} occupied cells");
            let back = decode_one(&bytes, &tw, &mut DecodeBudget::default()).unwrap();
            assert_eq!(back.windows.window(1), cp.windows.window(1));
        }
    }

    /// Small values (the usual case), full-range ones (wrapping deltas,
    /// sentinel flows), and the default half, in equal shares.
    fn arb_half() -> impl Strategy<Value = Half> {
        (0u8..3, any::<u32>(), any::<u64>()).prop_map(|(kind, flow, seq)| match kind {
            0 => Half {
                flow: FlowId(flow % 200),
                seq: seq % 1_000,
            },
            1 => Half {
                flow: FlowId(flow),
                seq,
            },
            _ => Half::default(),
        })
    }

    fn arb_monitor() -> impl Strategy<Value = QueueMonitorSnapshot> {
        (
            1usize..200,
            prop::collection::vec((0usize..200, arb_half(), arb_half()), 0..60),
            0u32..200,
        )
            .prop_map(|(len, writes, top)| {
                let mut entries = vec![Entry::default(); len];
                for (level, inc, dec) in writes {
                    entries[level % len] = Entry { inc, dec };
                }
                QueueMonitorSnapshot::from_dense(&entries, top % len as u32)
            })
    }

    fn arb_checkpoint(tw: TimeWindowConfig) -> impl Strategy<Value = Checkpoint> {
        let cells = tw.cells();
        (
            any::<u64>(),
            any::<bool>(),
            any::<bool>(),
            prop::collection::vec(
                (0u8..tw.t, 0usize..cells, any::<u32>(), any::<u64>()),
                0..40,
            ),
            prop::collection::vec(arb_monitor(), 0..4),
        )
            .prop_map(
                move |(frozen_at, on_demand, filtered, writes, queue_monitors)| {
                    let mut windows = vec![vec![Cell::EMPTY; cells]; usize::from(tw.t)];
                    for (w, idx, flow, cycle) in writes {
                        windows[usize::from(w)][idx] = Cell {
                            flow: FlowId(flow),
                            cycle,
                        };
                    }
                    Checkpoint {
                        frozen_at,
                        on_demand,
                        trigger: on_demand.then(|| QueryInterval::new(frozen_at / 2, frozen_at)),
                        windows: TimeWindowSnapshot::from_parts(tw, windows, filtered),
                        queue_monitors,
                    }
                },
            )
    }

    proptest! {
        /// Same bytes as the dense encoder over a run of checkpoints sharing
        /// one delta chain, and a decode → re-encode that changes nothing.
        #[test]
        fn row_walk_matches_dense_reference_encoder(
            cps in prop::collection::vec(arb_checkpoint(TimeWindowConfig::new(4, 2, 4, 3)), 1..5),
        ) {
            let tw = TimeWindowConfig::new(4, 2, 4, 3);
            let (mut sparse, mut dense) = (Vec::new(), Vec::new());
            let (mut s_state, mut d_state) = (CodecState::default(), CodecState::default());
            // One memo across unrelated checkpoints: monitor counts and
            // lengths change under it and no chunk is ever the same.
            let mut memo = EncodeMemo::default();
            for cp in &cps {
                encode_checkpoint(&mut sparse, &tw, &mut s_state, &mut memo, cp).unwrap();
                encode_checkpoint_dense(&mut dense, &tw, &mut d_state, cp);
            }
            prop_assert_eq!(&sparse, &dense);

            let mut cursor = sparse.as_slice();
            let mut state = CodecState::default();
            let mut again = Vec::new();
            let mut a_state = CodecState::default();
            for cp in &cps {
                let back =
                    decode_checkpoint(&mut cursor, &tw, &mut state, &mut DecodeBudget::default())
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(&back.queue_monitors, &cp.queue_monitors);
                encode_checkpoint(&mut again, &tw, &mut a_state, &mut EncodeMemo::default(), &back).unwrap();
            }
            prop_assert!(cursor.is_empty());
            prop_assert_eq!(&again, &sparse);
        }
    }

    /// Levels per snapshot chunk, read off a snapshot (the constant is
    /// private to `pq-core`).
    fn chunk_levels() -> usize {
        let levels = 1 << 15;
        levels
            / QueueMonitorSnapshot::from_dense(&vec![Entry::default(); levels], 0)
                .chunks()
                .len()
    }

    /// Two live monitors frozen into checkpoints that go through one
    /// memoising encoder and through the dense reference, a "segment" at a
    /// time: both restart their `CodecState` on rotation, the memo does not.
    struct Chain {
        tw: TimeWindowConfig,
        monitors: [QueueMonitor; 2],
        last: Option<Checkpoint>,
        memo: EncodeMemo,
        states: (CodecState, CodecState),
        bodies: (Vec<u8>, Vec<u8>),
        now: u64,
    }

    impl Chain {
        fn new() -> Chain {
            let span = chunk_levels();
            Chain {
                tw: TimeWindowConfig::new(4, 2, 4, 3),
                monitors: [
                    QueueMonitor::new(4 * span, 1),
                    QueueMonitor::new(2 * span + 17, 1),
                ],
                last: None,
                memo: EncodeMemo::default(),
                states: Default::default(),
                bodies: Default::default(),
                now: 0,
            }
        }

        fn write(&mut self, monitor: usize, enqueue: bool, flow: u32, depth: usize) {
            let m = &mut self.monitors[monitor];
            if enqueue {
                m.on_enqueue(FlowId(flow), depth as u32, 0);
            } else {
                m.on_dequeue(FlowId(flow), depth as u32, 0);
            }
        }

        fn rotate(&mut self) {
            self.states = Default::default();
        }

        /// Freeze, encode both ways, compare everything written so far;
        /// returns how many rows the checkpoint shares with the last one.
        fn checkpoint(&mut self, on_demand: bool) -> usize {
            self.now += 100;
            let mut cp = sample_checkpoint(&self.tw, self.now);
            cp.on_demand = on_demand;
            cp.trigger = on_demand.then(|| QueryInterval::new(self.now / 2, self.now));
            cp.queue_monitors = self.monitors.iter_mut().map(|m| m.freeze()).collect();
            encode_checkpoint(
                &mut self.bodies.0,
                &self.tw,
                &mut self.states.0,
                &mut self.memo,
                &cp,
            )
            .unwrap();
            encode_checkpoint_dense(&mut self.bodies.1, &self.tw, &mut self.states.1, &cp);
            assert!(
                self.bodies.0 == self.bodies.1,
                "memoised bytes differ from the reference at t = {}",
                self.now
            );
            let shared = cp
                .queue_monitors
                .iter()
                .enumerate()
                .map(|(q, m)| {
                    let old = self.last.as_ref().map(|last| &last.queue_monitors[q]);
                    m.occupied_len() - m.rows_not_shared_with(old)
                })
                .sum();
            self.last = Some(cp);
            shared
        }
    }

    #[test]
    fn memoised_chunks_encode_as_the_reference_does_case_by_case() {
        let span = chunk_levels();
        let mut chain = Chain::new();
        // Rows at both ends of every chunk of monitor 0 except the top of
        // chunk 1, and a few in monitor 1.
        for c in 0..4 {
            for at in [0, 5, span - 9] {
                chain.write(0, true, 7 + c as u32, c * span + at);
            }
        }
        for level in [3, span - 1, span, 2 * span + 16] {
            chain.write(1, false, 40, level);
        }
        assert_eq!(chain.checkpoint(false), 0, "nothing to share yet");
        let all = 4 * 3 + 4;
        assert_eq!(
            chain.checkpoint(false),
            all,
            "an idle period shares every chunk"
        );

        chain.write(0, false, 9, span); // first row of chunk 1
        assert_eq!(chain.checkpoint(false), all - 3);
        chain.write(0, true, 9, 2 * span - 9); // last row of chunk 1
        assert_eq!(chain.checkpoint(false), all - 3);
        // A new row directly before unchanged chunk 2: its first row's
        // level delta and sequence delta both change, its tail does not.
        chain.write(0, true, 9, 2 * span - 1);
        assert_eq!(chain.checkpoint(false), all - 3);
        let all = all + 1;

        assert_eq!(chain.checkpoint(true), all, "an on-demand read in between");
        chain.rotate();
        assert_eq!(
            chain.checkpoint(false),
            all,
            "the memo outlives the segment"
        );

        // Monitor 0 empties: monitor 1's first row now opens the
        // checkpoint's sequence chain.
        chain.monitors[0].clear();
        assert_eq!(chain.checkpoint(false), 4);
        chain.write(0, true, 11, 3 * span + 1);
        assert_eq!(
            chain.checkpoint(false),
            4,
            "a chunk that was empty holds a row again"
        );
        chain.write(1, true, 12, 2 * span + 16); // the clamped last level of monitor 1
        assert_eq!(chain.checkpoint(false), 1 + 3);
    }

    /// `(monitor, enqueue, flow, depth)`, depths biased to chunk borders.
    fn arb_write() -> impl Strategy<Value = (usize, bool, u32, usize)> {
        let span = chunk_levels();
        let depth = (any::<bool>(), 0usize..5, 0usize..7, 0..4 * span + 40).prop_map(
            move |(border, c, d, anywhere)| match border {
                true => (c * span + d).saturating_sub(3),
                false => anywhere,
            },
        );
        (0usize..2, any::<bool>(), 0u32..50, depth)
    }

    proptest! {
        /// Random chains in which most chunks survive from one checkpoint
        /// to the next: a few writes, sometimes a cleared monitor, an
        /// on-demand read or a new segment, then a freeze.
        #[test]
        fn memoised_chains_match_the_reference(
            steps in prop::collection::vec(
                (prop::collection::vec(arb_write(), 0..6), 0u8..12, any::<bool>(), 0u8..4),
                1..24,
            ),
        ) {
            let mut chain = Chain::new();
            for (writes, clear, on_demand, rotate) in steps {
                for (monitor, enqueue, flow, depth) in writes {
                    chain.write(monitor, enqueue, flow, depth);
                }
                if let Some(m) = chain.monitors.get_mut(usize::from(clear)) {
                    m.clear();
                }
                if rotate == 0 {
                    chain.rotate();
                }
                chain.checkpoint(on_demand);
            }
        }
    }
}
