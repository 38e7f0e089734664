//! Checkpoint ⇄ bytes: the sparse, delta-compressed body encoding of a
//! `.pqa` segment.
//!
//! The encoding leans on three structural facts of PrintQueue register
//! state:
//!
//! * time-window cells are *mostly empty* outside congestion epochs, and
//!   an empty cell has exactly one canonical form
//!   ([`Cell::EMPTY`]: flow = `FlowId::NONE`, cycle = `u64::MAX`), so
//!   windows are stored as sorted occupied-index runs;
//! * a queue-monitor half is empty iff `seq == 0` (with the canonical
//!   `FlowId::NONE` flow), so the sparse stack is stored the same way;
//! * between two polls a standing queue rewrites a few levels near its
//!   top, so most of a monitor is what the previous checkpoint held.
//!
//! Monotone quantities (freeze times, cell indices, cycle IDs, stack
//! sequence numbers) are delta-coded with zigzag varints, from the
//! workspace's one byte codec (`pq_prof::codec`). Deltas use *wrapping*
//! arithmetic so every `u64` value — including the `u64::MAX` sentinels —
//! round-trips losslessly.
//!
//! **Queue monitors (format version 2).** A monitor is `len | top` and then
//! one varint tag per [`SLOT_LEVELS`]-level slot of its array: 0 for a slot
//! with no occupied level, 1 for a slot whose rows equal that slot of the
//! same monitor in the previous checkpoint of the segment, and `n + 1` for a
//! slot whose `n` rows follow. Rows restart their level and sequence chains
//! in every slot, so a slot's bytes are a function of its rows alone. A
//! segment's first checkpoint never refers back, so a segment still decodes
//! on its own. Version 1, which the reader still decodes, wrote `len | top |
//! occupied` and every occupied row, with one sequence chain across the
//! monitors of a checkpoint.
//!
//! **Time windows (format version 3).** A window is `varint(2·n)` and the
//! runs of its `n` occupied cells (whole, as versions 1 and 2 wrote every
//! window with a plain `n`), or `varint(2·c + 1)` and the `c` cells that
//! differ from the same window of the previous checkpoint in the segment
//! (a patch): each cell's index delta-coded like a run, its flow, and its
//! cycle as a zigzag delta against the cycle of the cell it replaces. A
//! cell is written raw, so a patch can empty one. The encoder patches iff
//! `c = 0` or `c < n`, so an unchanged window costs one byte and the bytes
//! stay a function of the checkpoint sequence; a segment's first
//! checkpoint never patches. A patch of no cells decodes to the previous
//! checkpoint's window itself, so decoded checkpoints share unchanged
//! windows.
//!
//! A monitor decodes straight into its chunks: a slot that refers back is
//! the previous checkpoint's chunk itself, and a fresh slot's rows are
//! gathered into a new one, so no dense array is ever built.
//!
//! Decoding never trusts a length from the wire: counts are bounded by
//! the structure they index into and by the bytes left, and bulk
//! allocations are charged against a [`DecodeBudget`] so an adversarial
//! header cannot balloon memory.

use crate::format::{invalid, SLOT_LEVELS, VERSION, VERSION_V1};
use pq_core::control::Checkpoint;
use pq_core::params::TimeWindowConfig;
use pq_core::queue_monitor::{Entry, Half, QueueMonitorSnapshot, Row};
use pq_core::snapshot::{QueryInterval, TimeWindowSnapshot};
use pq_core::time_windows::Cell;
use pq_packet::FlowId;
use pq_prof::codec::{self, put_varint, put_zigzag, varint_len};
use std::io;
use std::sync::Arc;

const FLAG_ON_DEMAND: u8 = 1 << 0;
const FLAG_TRIGGER: u8 = 1 << 1;
const FLAG_FILTERED: u8 = 1 << 2;
const HALF_INC: u8 = 1 << 0;
const HALF_DEC: u8 = 1 << 1;
/// A version-2 slot with no occupied level.
const TAG_EMPTY: u64 = 0;
/// A version-2 slot whose rows are the previous checkpoint's; `TAG_SAME +
/// n` announces `n ≥ 1` rows written out.
const TAG_SAME: u64 = 1;

/// Queue monitors per checkpoint are small (one per egress queue); cap
/// the count so a corrupt body cannot spin the decoder.
const MAX_MONITORS: usize = 1024;

/// Allocation budget for decoding untrusted bodies.
///
/// Every bulk allocation (window cell arrays, monitor slot tables and
/// rows) is charged here *before* the memory is reserved; exceeding the
/// budget is an `InvalidData` error, not an OOM. The default (64 MiB) comfortably
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
/// segment body. It starts empty with every body, and a checkpoint the
/// encoder writes while it is empty — a body's first — refers to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecState {
    prev_frozen: Option<u64>,
}

/// The queue-monitor chunks and time windows of one port's previous
/// checkpoint, and the bytes each chunk encoded to. The next checkpoint
/// writes a chunk it finds here unchanged as a one-byte reference, or — as
/// the first checkpoint of a new segment, which may not refer back — copies
/// its bytes instead of encoding the rows again. A window is written as a
/// patch against the one here, or whole. It outlives segment rotation.
///
/// "Unchanged" is a property of the rows, not of the allocation: a chunk is
/// the same allocation when [`QueueMonitor::freeze`] shared it, which
/// `Arc::ptr_eq` finds first, and otherwise the rows are compared. So the
/// bytes depend on the checkpoint sequence alone: a decoded, cloned or
/// rebuilt run encodes as the live one did. Because the memo holds each
/// `Arc` it compares by pointer, the allocation cannot be freed and its
/// address handed to different rows.
///
/// A window is the same allocation when [`TimeWindowSet::freeze`] shared
/// it, and is otherwise compared cell by cell; either way the patch has
/// the same cells.
///
/// [`QueueMonitor::freeze`]: pq_core::queue_monitor::QueueMonitor::freeze
/// [`TimeWindowSet::freeze`]: pq_core::time_windows::TimeWindowSet::freeze
#[derive(Default)]
pub struct EncodeMemo {
    /// `[monitor][slot]` of the previous checkpoint; `None` where the slot
    /// was empty.
    monitors: Vec<Vec<Option<ChunkMemo>>>,
    /// Every window of the previous checkpoint; empty before the first.
    windows: Vec<Arc<[Cell]>>,
    /// Scratch for one window's compare pass: the indices of the cells
    /// that changed, then spare slots (one per cell).
    changed: Vec<u32>,
}

struct ChunkMemo {
    rows: Arc<[Row]>,
    /// The slot's tag and rows.
    bytes: Vec<u8>,
}

// The per-field helpers of both directions are forced inline: with the
// varint now inlined from pq-prof, LLVM otherwise keeps them out of line, and
// a call per cell field halved the encoder's rate.
#[inline(always)]
fn put_delta_u64(out: &mut Vec<u8>, prev: &mut Option<u64>, value: u64) {
    match *prev {
        None => put_varint(out, value),
        Some(p) => put_zigzag(out, value.wrapping_sub(p) as i64),
    }
    *prev = Some(value);
}

#[inline(always)]
fn read_delta_u64(cursor: &mut &[u8], prev: &mut Option<u64>) -> io::Result<u64> {
    let value = match *prev {
        None => codec::varint(cursor)?,
        Some(p) => p.wrapping_add(codec::zigzag(cursor)? as u64),
    };
    *prev = Some(value);
    Ok(value)
}

/// Append one occupied queue-monitor row, coded against its slot's level
/// and sequence chains. A row always has a non-default half — a snapshot
/// keeps no row for a default entry — so it always advances both.
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
        put_varint(out, u64::from(half.flow.0));
        put_delta_u64(out, prev_seq, half.seq);
    }
}

/// Append one slot given what the previous checkpoint held there (`slot`),
/// and leave `slot` describing `chunk`. `follows` is whether this
/// checkpoint has a predecessor in the body to refer to.
fn put_slot(
    out: &mut Vec<u8>,
    chunk: Option<&Arc<[Row]>>,
    slot: &mut Option<ChunkMemo>,
    follows: bool,
) {
    let Some(rows) = chunk else {
        put_varint(out, TAG_EMPTY);
        *slot = None;
        return;
    };
    match slot {
        Some(known) if Arc::ptr_eq(&known.rows, rows) || known.rows[..] == rows[..] => {
            if follows {
                put_varint(out, TAG_SAME);
            } else {
                out.extend_from_slice(&known.bytes);
            }
            known.rows = Arc::clone(rows);
        }
        _ => {
            let at = out.len();
            put_varint(out, TAG_SAME + rows.len() as u64);
            let (mut prev_idx, mut prev_seq) = (None, None);
            for row in rows.iter() {
                put_row(out, &mut prev_idx, &mut prev_seq, row);
            }
            *slot = Some(ChunkMemo {
                rows: Arc::clone(rows),
                bytes: out[at..].to_vec(),
            });
        }
    }
}

/// Whether `cell` holds a packet, without a branch per field.
#[inline(always)]
fn occupied(cell: &Cell) -> bool {
    (cell.flow != Cell::EMPTY.flow) | (cell.cycle != Cell::EMPTY.cycle)
}

/// Append the runs of `cells`' occupied cells; returns how many there were.
fn put_runs(out: &mut Vec<u8>, cells: &[Cell]) -> usize {
    let mut n = 0;
    let mut prev_idx: Option<u64> = None;
    let mut prev_cycle: Option<u64> = None;
    for (idx, cell) in cells.iter().enumerate() {
        if !occupied(cell) {
            continue;
        }
        n += 1;
        // Indices are emitted ascending, so deltas are strictly
        // positive after the first.
        put_delta_u64(out, &mut prev_idx, idx as u64);
        put_varint(out, u64::from(cell.flow.0));
        put_delta_u64(out, &mut prev_cycle, cell.cycle);
    }
    n
}

/// Append a whole window — `varint(2·n)` and its runs — in one walk over
/// its cells. The head goes in front of the runs once it is known, which
/// moves the few KB just written instead of reading the whole window a
/// second time.
fn put_window(out: &mut Vec<u8>, cells: &[Cell]) {
    let runs_at = out.len();
    let head = 2 * put_runs(out, cells) as u64;
    put_varint(out, head);
    out[runs_at..].rotate_right(varint_len(head));
}

/// The compare pass of a window against the same window of the previous
/// checkpoint: returns `(c, n)`, the number of cells that differ and of
/// occupied cells, and leaves the `c` changed indices, ascending, at the
/// front of `changed`.
fn compare(before: &[Cell], cells: &[Cell], changed: &mut Vec<u32>) -> (usize, usize) {
    // Every index is stored, and only a changed one is kept: the cursor
    // advances by the comparison, not by a branch on it.
    changed.resize(cells.len(), 0);
    let (mut c, mut n) = (0, 0);
    for (idx, (old, new)) in before.iter().zip(cells).enumerate() {
        changed[c] = idx as u32;
        c += usize::from((old.flow != new.flow) | (old.cycle != new.cycle));
        n += usize::from(occupied(new));
    }
    (c, n)
}

/// Append a patch: `varint(2·c + 1)`, then each changed cell's index
/// (delta-coded like a run), its flow, and its cycle as a zigzag delta
/// against the cycle of the cell it replaces in `before`.
fn put_patch(out: &mut Vec<u8>, before: &[Cell], cells: &[Cell], changed: &[u32]) {
    put_varint(out, 2 * changed.len() as u64 + 1);
    let mut prev_idx: Option<u64> = None;
    for &idx in changed {
        let (old, new) = (&before[idx as usize], &cells[idx as usize]);
        put_delta_u64(out, &mut prev_idx, u64::from(idx));
        put_varint(out, u64::from(new.flow.0));
        put_zigzag(out, new.cycle.wrapping_sub(old.cycle) as i64);
    }
}

/// Append window `cells` given what the previous checkpoint held there
/// (`known`), and leave `known` holding `cells`. `follows` is whether this
/// checkpoint has a predecessor in the body to patch against.
///
/// A patch is written iff no cell changed or fewer changed than are
/// occupied (`c = 0 ∨ c < n`), a rule of the two windows' contents alone.
fn put_window_after(
    out: &mut Vec<u8>,
    cells: &Arc<[Cell]>,
    known: &mut Arc<[Cell]>,
    changed: &mut Vec<u32>,
    follows: bool,
) {
    // A memo that never saw a window of this size (a fresh one) holds
    // nothing to patch against.
    if !follows || known.len() != cells.len() {
        put_window(out, cells);
    } else if Arc::ptr_eq(known, cells) {
        put_varint(out, 1); // a patch of no cells
    } else {
        let (c, n) = compare(known, cells, changed);
        if c == 0 || c < n {
            put_patch(out, known, cells, &changed[..c]);
        } else {
            put_varint(out, 2 * n as u64);
            put_runs(out, cells);
        }
    }
    *known = Arc::clone(cells);
}

/// Append one checkpoint to `out`, in format version 3.
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
    let follows = state.prev_frozen.is_some();
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
        put_varint(out, trigger.from);
        put_varint(out, trigger.to.saturating_sub(trigger.from));
    }

    memo.windows.resize_with(usize::from(tw.t), Arc::default);
    for (w, known) in (0..tw.t).zip(&mut memo.windows) {
        let cells = cp.windows.shared_window(w);
        put_window_after(out, cells, known, &mut memo.changed, follows);
    }

    put_varint(out, cp.queue_monitors.len() as u64);
    memo.monitors.resize_with(cp.queue_monitors.len(), Vec::new);
    for (monitor, slots) in cp.queue_monitors.iter().zip(&mut memo.monitors) {
        put_varint(out, monitor.len() as u64);
        put_varint(out, u64::from(monitor.top));
        slots.resize_with(monitor.chunks().len(), || None);
        for (chunk, slot) in monitor.chunks().iter().zip(slots) {
            put_slot(out, chunk.as_ref(), slot, follows);
        }
    }
    Ok(())
}

#[inline(always)]
fn read_flow(cursor: &mut &[u8]) -> io::Result<FlowId> {
    let raw = codec::varint(cursor)?;
    u32::try_from(raw)
        .map(FlowId)
        .map_err(|_| invalid("flow id out of u32 range"))
}

/// Decode a row's halves (everything after its level).
fn read_entry(cursor: &mut &[u8], prev_seq: &mut Option<u64>) -> io::Result<Entry> {
    let halves = codec::u8(cursor)?;
    if halves & !(HALF_INC | HALF_DEC) != 0 || halves == 0 {
        return Err(invalid("invalid monitor half flags"));
    }
    let mut entry = Entry::default();
    if halves & HALF_INC != 0 {
        entry.inc = Half {
            flow: read_flow(cursor)?,
            seq: read_delta_u64(cursor, prev_seq)?,
        };
    }
    if halves & HALF_DEC != 0 {
        entry.dec = Half {
            flow: read_flow(cursor)?,
            seq: read_delta_u64(cursor, prev_seq)?,
        };
    }
    Ok(entry)
}

/// A whole window: `n` occupied cells' runs, `n` already admitted.
fn read_runs(
    cursor: &mut &[u8],
    cells: usize,
    budget: &mut DecodeBudget,
    n: usize,
) -> io::Result<Arc<[Cell]>> {
    budget.charge(cells as u64 * std::mem::size_of::<Cell>() as u64)?;
    // Filled in its shared allocation, which nothing else holds yet.
    let mut shared: Arc<[Cell]> = std::iter::repeat_n(Cell::EMPTY, cells).collect();
    let window = Arc::get_mut(&mut shared).expect("a fresh allocation is unique");
    let mut prev_idx: Option<u64> = None;
    let mut prev_cycle: Option<u64> = None;
    let mut last_idx: Option<usize> = None;
    for _ in 0..n {
        let idx = read_delta_u64(cursor, &mut prev_idx)?;
        if idx >= cells as u64 || last_idx.is_some_and(|l| idx as usize <= l) {
            return Err(invalid("cell index out of order or out of range"));
        }
        last_idx = Some(idx as usize);
        let flow = read_flow(cursor)?;
        let cycle = read_delta_u64(cursor, &mut prev_cycle)?;
        window[idx as usize] = Cell { flow, cycle };
    }
    Ok(shared)
}

/// A version-3 window, whole or patched against `before`: the same window
/// of the previous checkpoint of the body, if there is one. A patch of no
/// cells is `before` itself; any other is a copy of it, the cells applied.
fn read_window_v3(
    cursor: &mut &[u8],
    cells: usize,
    budget: &mut DecodeBudget,
    before: Option<&Arc<[Cell]>>,
) -> io::Result<Arc<[Cell]>> {
    let head = codec::varint(cursor)?;
    // Every cell, whole or patched, takes at least three bytes.
    let n = codec::count(
        cursor,
        usize::try_from(head >> 1).unwrap_or(usize::MAX),
        cells,
        3,
    )?;
    if head & 1 == 0 {
        return read_runs(cursor, cells, budget, n);
    }
    let Some(before) = before.filter(|b| b.len() == cells) else {
        return Err(invalid("window patch with no predecessor to patch"));
    };
    if n == 0 {
        return Ok(Arc::clone(before));
    }
    budget.charge(cells as u64 * std::mem::size_of::<Cell>() as u64)?;
    let mut shared: Arc<[Cell]> = Arc::from(&before[..]);
    let window = Arc::get_mut(&mut shared).expect("a fresh allocation is unique");
    let mut prev_idx: Option<u64> = None;
    let mut next = 0u64;
    for _ in 0..n {
        let idx = read_delta_u64(cursor, &mut prev_idx)?;
        if idx >= cells as u64 {
            return Err(invalid("window patch index out of range"));
        }
        if idx < next {
            return Err(invalid("window patch indices not ascending"));
        }
        next = idx + 1;
        let cell = &mut window[idx as usize];
        cell.flow = read_flow(cursor)?;
        cell.cycle = cell.cycle.wrapping_add(codec::zigzag(cursor)? as u64);
    }
    Ok(shared)
}

/// A monitor's slot table: one slot per [`SLOT_LEVELS`] levels, charged
/// before it is allocated.
fn slot_table(slots: usize, budget: &mut DecodeBudget) -> io::Result<Vec<Option<Arc<[Row]>>>> {
    budget.charge(slots as u64 * std::mem::size_of::<Option<Arc<[Row]>>>() as u64)?;
    Ok(Vec::with_capacity(slots))
}

/// The rows gathered in `scratch` as one shared chunk, `None` if there are
/// none; leaves `scratch` empty.
fn take_chunk(scratch: &mut Vec<Row>) -> Option<Arc<[Row]>> {
    let chunk = (!scratch.is_empty()).then(|| Arc::from(&scratch[..]));
    scratch.clear();
    chunk
}

/// Admit `n` rows announced on the wire and charge them before anything is
/// reserved: at most `cap`, and each takes at least four bytes (level,
/// halves, one flow and one sequence).
fn admit_rows(cursor: &[u8], n: usize, cap: usize, budget: &mut DecodeBudget) -> io::Result<usize> {
    let n = codec::count(cursor, n, cap, 4)?;
    budget.charge(n as u64 * std::mem::size_of::<Row>() as u64)?;
    Ok(n)
}

/// A version-1 monitor's chunks: an occupied count, then every row, the
/// sequence chain continuing from the checkpoint's previous monitor. Rows
/// are split into slots as they arrive.
fn read_rows_v1(
    cursor: &mut &[u8],
    len: usize,
    budget: &mut DecodeBudget,
    prev_seq: &mut Option<u64>,
    scratch: &mut Vec<Row>,
) -> io::Result<Vec<Option<Arc<[Row]>>>> {
    let occupied = codec::len(cursor, len)?;
    let occupied = admit_rows(cursor, occupied, len, budget)?;
    let mut chunks = slot_table(len.div_ceil(SLOT_LEVELS), budget)?;
    chunks.resize(len.div_ceil(SLOT_LEVELS), None);
    let mut prev_idx: Option<u64> = None;
    let (mut next, mut slot) = (0u64, 0usize);
    for _ in 0..occupied {
        let idx = read_delta_u64(cursor, &mut prev_idx)?;
        if idx < next || idx >= len as u64 {
            return Err(invalid("monitor entry index out of order or out of range"));
        }
        next = idx + 1;
        let entry = read_entry(cursor, prev_seq)?;
        if idx as usize / SLOT_LEVELS != slot {
            chunks[slot] = take_chunk(scratch);
            slot = idx as usize / SLOT_LEVELS;
        }
        if entry != Entry::default() {
            scratch.push(Row::new(idx as u32, entry));
        }
    }
    if let Some(last) = chunks.get_mut(slot) {
        *last = take_chunk(scratch);
    }
    Ok(chunks)
}

/// A version-2 monitor's chunks: one tag per slot. A slot that refers back
/// is the chunk of `before` — the same monitor in the previous checkpoint of
/// the body — itself, and costs nothing; a fresh slot's rows are charged
/// one [`Row`] each.
fn read_slots(
    cursor: &mut &[u8],
    len: usize,
    budget: &mut DecodeBudget,
    before: Option<&QueueMonitorSnapshot>,
    scratch: &mut Vec<Row>,
) -> io::Result<Vec<Option<Arc<[Row]>>>> {
    // Every slot's tag takes at least one byte.
    let slots = codec::count(cursor, len.div_ceil(SLOT_LEVELS), usize::MAX, 1)?;
    let mut chunks = slot_table(slots, budget)?;
    for c in 0..slots {
        let base = c * SLOT_LEVELS;
        let span = (len - base).min(SLOT_LEVELS);
        let chunk = match codec::varint(cursor)? {
            TAG_EMPTY => None,
            TAG_SAME => {
                let rows = before
                    .and_then(|b| b.chunks().get(c)?.as_ref())
                    .ok_or_else(|| invalid("monitor slot refers to one its predecessor lacks"))?;
                // Rows ascend, so the last is the highest.
                if rows.last().is_some_and(|r| r.level() as usize >= len) {
                    return Err(invalid("referenced monitor rows lie past the array"));
                }
                Some(Arc::clone(rows))
            }
            tag => {
                if tag - TAG_SAME > span as u64 {
                    return Err(invalid("monitor slot holds more rows than levels"));
                }
                let n = admit_rows(cursor, (tag - TAG_SAME) as usize, span, budget)?;
                scratch.reserve(n);
                let (mut prev_idx, mut prev_seq) = (None, None);
                let mut next = 0u64;
                for _ in 0..n {
                    let at = read_delta_u64(cursor, &mut prev_idx)?.wrapping_sub(base as u64);
                    if at < next || at >= span as u64 {
                        return Err(invalid("monitor row outside its slot or out of order"));
                    }
                    next = at + 1;
                    let entry = read_entry(cursor, &mut prev_seq)?;
                    if entry != Entry::default() {
                        scratch.push(Row::new((base as u64 + at) as u32, entry));
                    }
                }
                take_chunk(scratch)
            }
        };
        chunks.push(chunk);
    }
    Ok(chunks)
}

/// Decode one checkpoint of a format-`version` body from the cursor.
/// `prev` is the checkpoint decoded just before it from the same body
/// (`None` for the body's first), whose chunks a monitor-slot reference
/// shares and whose windows a version-3 patch starts from.
pub fn decode_checkpoint(
    cursor: &mut &[u8],
    tw: &TimeWindowConfig,
    version: u8,
    state: &mut CodecState,
    budget: &mut DecodeBudget,
    prev: Option<&Checkpoint>,
) -> io::Result<Checkpoint> {
    let mut cp = read_head(cursor, tw, version, state, budget, prev)?;
    let n_monitors = codec::len(cursor, MAX_MONITORS)?;
    cp.queue_monitors.reserve_exact(n_monitors);
    let mut prev_seq: Option<u64> = None;
    // One slot's rows at a time, before they become a shared chunk.
    let mut scratch = Vec::new();
    for m in 0..n_monitors {
        let len = codec::len(cursor, u32::MAX as usize)?;
        let top = codec::len(cursor, u32::MAX as usize)? as u32;
        if len > 0 && u64::from(top) >= len as u64 {
            return Err(invalid("queue-monitor top beyond entry array"));
        }
        let chunks = if version == VERSION_V1 {
            read_rows_v1(cursor, len, budget, &mut prev_seq, &mut scratch)?
        } else {
            let before = prev.and_then(|p| p.queue_monitors.get(m));
            read_slots(cursor, len, budget, before, &mut scratch)?
        };
        cp.queue_monitors
            .push(QueueMonitorSnapshot::from_chunks(len, chunks, top));
    }
    Ok(cp)
}

/// A checkpoint's freeze time, flags, trigger and windows, with no
/// monitors yet.
fn read_head(
    cursor: &mut &[u8],
    tw: &TimeWindowConfig,
    version: u8,
    state: &mut CodecState,
    budget: &mut DecodeBudget,
    prev: Option<&Checkpoint>,
) -> io::Result<Checkpoint> {
    let frozen_at = read_delta_u64(cursor, &mut state.prev_frozen)?;
    let flags = codec::u8(cursor)?;
    if flags & !(FLAG_ON_DEMAND | FLAG_TRIGGER | FLAG_FILTERED) != 0 {
        return Err(invalid("unknown checkpoint flags"));
    }
    let trigger = if flags & FLAG_TRIGGER != 0 {
        let from = codec::varint(cursor)?;
        let len = codec::varint(cursor)?;
        Some(QueryInterval::new(from, from.saturating_add(len)))
    } else {
        None
    };

    let cells = tw.cells();
    let mut windows = Vec::with_capacity(usize::from(tw.t));
    for w in 0..tw.t {
        let window = if version >= VERSION {
            let before = prev.map(|p| p.windows.shared_window(w));
            read_window_v3(cursor, cells, budget, before)?
        } else {
            let n = codec::len(cursor, cells)?;
            read_runs(cursor, cells, budget, n)?
        };
        windows.push(window);
    }
    Ok(Checkpoint {
        frozen_at,
        on_demand: flags & FLAG_ON_DEMAND != 0,
        trigger,
        windows: TimeWindowSnapshot::from_shared(*tw, windows, flags & FLAG_FILTERED != 0),
        queue_monitors: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::VERSION_V2;
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

    /// Field-by-field equality (`Checkpoint` has no `PartialEq`).
    fn same(a: &Checkpoint, b: &Checkpoint) -> bool {
        let tw = a.windows.config();
        a.frozen_at == b.frozen_at
            && a.on_demand == b.on_demand
            && a.trigger == b.trigger
            && a.windows.config() == b.windows.config()
            && a.windows.is_filtered() == b.windows.is_filtered()
            && (0..tw.t).all(|w| a.windows.window(w) == b.windows.window(w))
            && a.queue_monitors == b.queue_monitors
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

    /// One checkpoint that follows `prev` in its body (`None`: the first).
    fn decode_after(
        bytes: &[u8],
        tw: &TimeWindowConfig,
        prev: Option<&Checkpoint>,
    ) -> io::Result<Checkpoint> {
        let mut cursor = bytes;
        decode_checkpoint(
            &mut cursor,
            tw,
            VERSION,
            &mut CodecState::default(),
            &mut DecodeBudget::default(),
            prev,
        )
    }

    fn decode_one(
        bytes: &[u8],
        tw: &TimeWindowConfig,
        budget: &mut DecodeBudget,
    ) -> io::Result<Checkpoint> {
        let mut cursor = bytes;
        decode_checkpoint(
            &mut cursor,
            tw,
            VERSION,
            &mut CodecState::default(),
            budget,
            None,
        )
    }

    /// Every checkpoint of one body, each decoded against the one before.
    fn decode_body(
        bytes: &[u8],
        tw: &TimeWindowConfig,
        version: u8,
    ) -> io::Result<Vec<Checkpoint>> {
        decode_body_with(
            bytes,
            tw,
            version,
            DecodeBudget::default(),
            decode_checkpoint,
        )
    }

    /// A checkpoint decoder's signature.
    type Decoder = fn(
        &mut &[u8],
        &TimeWindowConfig,
        u8,
        &mut CodecState,
        &mut DecodeBudget,
        Option<&Checkpoint>,
    ) -> io::Result<Checkpoint>;

    /// [`decode_body`] through `decode`, under `budget`.
    fn decode_body_with(
        bytes: &[u8],
        tw: &TimeWindowConfig,
        version: u8,
        mut budget: DecodeBudget,
        decode: Decoder,
    ) -> io::Result<Vec<Checkpoint>> {
        let mut cursor = bytes;
        let mut state = CodecState::default();
        let mut cps: Vec<Checkpoint> = Vec::new();
        while !cursor.is_empty() {
            let cp = decode(
                &mut cursor,
                tw,
                version,
                &mut state,
                &mut budget,
                cps.last(),
            )?;
            cps.push(cp);
        }
        Ok(cps)
    }

    /// One body of `cps` through one state and one memo.
    fn encode_body(tw: &TimeWindowConfig, memo: &mut EncodeMemo, cps: &[Checkpoint]) -> Vec<u8> {
        let (mut body, mut state) = (Vec::new(), CodecState::default());
        for cp in cps {
            encode_checkpoint(&mut body, tw, &mut state, memo, cp).unwrap();
        }
        body
    }

    #[test]
    fn roundtrip_sequence() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let cps: Vec<_> = [100u64, 250, 260, 1000]
            .iter()
            .map(|&t| sample_checkpoint(&tw, t))
            .collect();
        let buf = encode_body(&tw, &mut EncodeMemo::default(), &cps);
        let back = decode_body(&buf, &tw, VERSION).unwrap();
        assert_eq!(back.len(), cps.len());
        for (back, cp) in back.iter().zip(&cps) {
            assert!(same(back, cp));
        }
        // Equal rows in distinct allocations: after the first, each monitor
        // is its length, its top and one reference.
        let bare = |cp: &Checkpoint| {
            let mut cp = cp.clone();
            cp.queue_monitors.clear();
            cp
        };
        let without: Vec<_> = cps.iter().map(bare).collect();
        let without = encode_body(&tw, &mut EncodeMemo::default(), &without);
        let first = encode_one(&tw, &cps[0]).len() - encode_one(&tw, &bare(&cps[0])).len();
        assert_eq!(buf.len() - without.len(), first + 3 * 3);
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
        let back = decode_one(&buf, &tw, &mut DecodeBudget::default()).unwrap();
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
            truncate_and_flip(&tw, std::slice::from_ref(&cp));
        }
        // A referencing run of 32 Ki-level monitors: the same snapshot, the
        // same rows rebuilt, one level rewritten, then an array cut short.
        let first = many_row_checkpoint(&tw, 32 * 1024, 200);
        let mut again = first.clone();
        again.frozen_at += 640;
        let mut rebuilt = again.clone();
        rebuilt.frozen_at += 640;
        let mut dense = first.queue_monitors[0].to_dense();
        dense[7 * SLOT_LEVELS + 3].inc = Half {
            flow: FlowId(5),
            seq: 9_999,
        };
        rebuilt.queue_monitors = vec![QueueMonitorSnapshot::from_dense(&dense, 4)];
        let mut shrunk = rebuilt.clone();
        shrunk.frozen_at += 640;
        shrunk.queue_monitors = vec![QueueMonitorSnapshot::from_dense(&dense[..20_000], 4)];
        truncate_and_flip(&tw, &[first, again, rebuilt, shrunk]);
        // Version-3 window patches: one rewritten, one emptied and one
        // filled cell, then none.
        truncate_and_flip(&tw, &window_run(&tw));
    }

    /// Three checkpoints whose windows carry over: eight occupied cells in
    /// each window, then window 0 with a cell's cycle moved, a cell
    /// emptied and one filled (a three-cell patch), then the same again
    /// (patches of none).
    fn window_run(tw: &TimeWindowConfig) -> Vec<Checkpoint> {
        let mut dense = vec![vec![Cell::EMPTY; tw.cells()]; usize::from(tw.t)];
        for (w, window) in dense.iter_mut().enumerate() {
            for i in 0..8 {
                window[2 * i + w % 2] = Cell {
                    flow: FlowId(i as u32),
                    cycle: 40 + i as u64,
                };
            }
        }
        let mut first = sample_checkpoint(tw, 500);
        first.windows = TimeWindowSnapshot::from_parts(*tw, dense.clone(), false);
        dense[0][2].cycle += 5;
        dense[0][4] = Cell::EMPTY;
        dense[0][5] = Cell {
            flow: FlowId(77),
            cycle: 3,
        };
        let mut second = sample_checkpoint(tw, 1_140);
        second.windows = TimeWindowSnapshot::from_parts(*tw, dense, false);
        let mut third = second.clone();
        third.frozen_at += 640;
        let cps = vec![first, second, third];
        let body = encode_body(tw, &mut EncodeMemo::default(), &cps);
        let whole: usize = cps.iter().map(|cp| encode_one(tw, cp).len()).sum();
        assert!(body.len() + 50 < whole, "{} vs {whole} bytes", body.len());
        cps
    }

    /// Decode `cps`' body cut at every length and with every byte flipped.
    fn truncate_and_flip(tw: &TimeWindowConfig, cps: &[Checkpoint]) {
        let buf = encode_body(tw, &mut EncodeMemo::default(), cps);
        assert!(decode_body(&buf, tw, VERSION).is_ok());
        for cut in 0..buf.len() {
            let _ = decode_body(&buf[..cut], tw, VERSION);
        }
        for i in 0..buf.len() {
            let mut flipped = buf.clone();
            flipped[i] ^= 0x40;
            let _ = decode_body(&flipped, tw, VERSION);
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
        let err = decode_one(&buf, &tw, &mut DecodeBudget::new(1024)).unwrap_err();
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

    /// `cp`'s bytes up to its monitor section, then `section` (monitor
    /// count included), every field a varint.
    fn with_monitor_section(tw: &TimeWindowConfig, cp: &Checkpoint, section: &[u64]) -> Vec<u8> {
        let mut head = cp.clone();
        head.queue_monitors.clear();
        let mut bytes = encode_one(tw, &head);
        bytes.pop(); // the zero monitor count
        for &field in section {
            put_varint(&mut bytes, field);
        }
        bytes
    }

    #[test]
    fn v1_occupied_count_beyond_the_array_is_rejected() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let cp = sample_checkpoint(&tw, 501);
        // Nine occupied rows of an 8-entry array.
        let mut bytes = with_monitor_section(&tw, &cp, &[1, 8, 0, 9]);
        bytes.extend(std::iter::repeat_n(1u8, 64));
        let mut cursor = bytes.as_slice();
        let err = decode_checkpoint(
            &mut cursor,
            &tw,
            VERSION_V1,
            &mut CodecState::default(),
            &mut DecodeBudget::default(),
            None,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Bytes a fresh decode of one `len`-level monitor with `rows` rows
    /// charges: its slot table and its rows.
    fn monitor_charge(len: usize, rows: usize) -> u64 {
        let slots = len.div_ceil(SLOT_LEVELS) * std::mem::size_of::<Option<Arc<[Row]>>>();
        (slots + rows * std::mem::size_of::<Row>()) as u64
    }

    #[test]
    fn tiny_budget_rejects_a_many_row_monitor() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let cp = many_row_checkpoint(&tw, 32 * 1024, 3_000);
        let bytes = encode_one(&tw, &cp);
        // The rows that are occupied, not the array they sit in.
        let need = windows_charge(&tw) + monitor_charge(32 * 1024, 3_000);
        assert!(need < 32 * 1024 * std::mem::size_of::<Entry>() as u64);
        let err = decode_one(&bytes, &tw, &mut DecodeBudget::new(need - 1)).unwrap_err();
        assert!(err.to_string().contains("budget exhausted"), "{err}");
        let mut budget = DecodeBudget::new(need);
        let back = decode_one(&bytes, &tw, &mut budget).unwrap();
        assert_eq!(back.queue_monitors, cp.queue_monitors);
        assert_eq!(budget.remaining, 0);
    }

    /// Every window of `tw` decoded whole: what a body's first checkpoint
    /// charges before its monitors.
    fn windows_charge(tw: &TimeWindowConfig) -> u64 {
        u64::from(tw.t) * (tw.cells() * std::mem::size_of::<Cell>()) as u64
    }

    #[test]
    fn slot_rows_beyond_the_bytes_left_are_refused_before_reserving() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        // One slot of 100 rows, each four bytes: levels 0, 1, … (the first
        // raw, then zigzag +1), an increase half of flow 1, sequences 1, 2, …
        let mut bytes = with_monitor_section(
            &tw,
            &sample_checkpoint(&tw, 501),
            &[1, SLOT_LEVELS as u64, 0, TAG_SAME + 100],
        );
        bytes.extend([0, 1, 1, 1]);
        for _ in 1..100 {
            bytes.extend([2, 1, 1, 2]);
        }
        let spent = |bytes: &[u8]| {
            let mut budget = DecodeBudget::new(1 << 20);
            let result = decode_one(bytes, &tw, &mut budget);
            (result, (1 << 20) - budget.remaining)
        };
        let (back, charged) = spent(&bytes);
        assert_eq!(back.unwrap().queue_monitors[0].occupied_len(), 100);
        let head = windows_charge(&tw) + monitor_charge(SLOT_LEVELS, 0);
        assert_eq!(charged, head + monitor_charge(0, 100));
        // One byte short: the count is refused and nothing is charged for it.
        bytes.pop();
        let (err, charged) = spent(&bytes);
        let err = err.unwrap_err();
        assert!(
            err.to_string().contains("count exceeds bytes present"),
            "{err}"
        );
        assert_eq!(charged, head);
    }

    #[test]
    fn a_u32_max_monitor_length_is_refused_without_allocating_its_slot_table() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        // Empty windows, whose bytes every version reads alike.
        let mut cp = sample_checkpoint(&tw, 501);
        let empty = vec![vec![Cell::EMPTY; tw.cells()]; usize::from(tw.t)];
        cp.windows = TimeWindowSnapshot::from_parts(tw, empty, false);
        // 4 Mi slots announced, a handful of bytes to hold their tags.
        let mut bytes = with_monitor_section(&tw, &cp, &[1, u64::from(u32::MAX), 0]);
        bytes.extend([TAG_EMPTY as u8; 8]);
        let mut budget = DecodeBudget::new(u64::MAX);
        let err = decode_one(&bytes, &tw, &mut budget).unwrap_err();
        assert!(
            err.to_string().contains("count exceeds bytes present"),
            "{err}"
        );
        assert_eq!(u64::MAX - budget.remaining, windows_charge(&tw));
        // Version 1 spends no byte a slot, so its table is charged, and the
        // default budget cannot hold 4 Mi of them.
        let mut cursor = bytes.as_slice();
        let mut budget = DecodeBudget::default();
        let err = decode_checkpoint(
            &mut cursor,
            &tw,
            VERSION_V1,
            &mut CodecState::default(),
            &mut budget,
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("budget exhausted"), "{err}");
        let windows = windows_charge(&tw);
        assert_eq!(
            budget.remaining,
            DecodeBudget::default().remaining - windows
        );
    }

    #[test]
    fn monitor_slots_shared_with_the_predecessor_are_not_charged() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let levels: Vec<usize> = (0..40).map(|i| i * 800 + 3).collect();
        let first = monitor_checkpoint(&tw, 32 * 1024, &levels);
        let mut second = first.clone();
        second.frozen_at += 640;
        // The third rewrites one level of slot 7: only that slot is fresh.
        let mut third = second.clone();
        third.frozen_at += 640;
        let mut dense = third.queue_monitors[0].to_dense();
        dense[7 * SLOT_LEVELS + 5].dec = Half {
            flow: FlowId(9),
            seq: 77,
        };
        third.queue_monitors = vec![QueueMonitorSnapshot::from_dense(&dense, 0)];
        let cps = [first, second, third];
        let body = encode_body(&tw, &mut EncodeMemo::default(), &cps);

        let (mut cursor, mut state) = (body.as_slice(), CodecState::default());
        let mut back: Vec<Checkpoint> = Vec::new();
        let mut charged = Vec::new();
        while !cursor.is_empty() {
            let mut budget = DecodeBudget::new(1 << 30);
            let cp = decode_checkpoint(
                &mut cursor,
                &tw,
                VERSION,
                &mut state,
                &mut budget,
                back.last(),
            )
            .unwrap();
            charged.push((1 << 30) - budget.remaining);
            back.push(cp);
        }
        for (back, cp) in back.iter().zip(&cps) {
            assert!(same(back, cp));
        }
        let table = monitor_charge(32 * 1024, 0);
        assert_eq!(
            charged[0],
            windows_charge(&tw) + table + monitor_charge(0, 40)
        );
        // Windows patched by no cell, every slot a reference: the table only.
        assert_eq!(charged[1], table);
        let slot_7 = slot_rows(&back[2], 7);
        assert_eq!(charged[2], table + monitor_charge(0, slot_7));
        for (c, (old, new)) in back[0].queue_monitors[0]
            .chunks()
            .iter()
            .zip(back[1].queue_monitors[0].chunks())
            .enumerate()
        {
            match (old, new) {
                (Some(old), Some(new)) => assert!(Arc::ptr_eq(old, new), "slot {c}"),
                (None, None) => {}
                _ => panic!("slot {c} changed"),
            }
        }
        let chunks = |cp: &Checkpoint| cp.queue_monitors[0].chunks().to_vec();
        let (before, after) = (chunks(&back[1]), chunks(&back[2]));
        for (c, (old, new)) in before.iter().zip(&after).enumerate() {
            let shared = match (old, new) {
                (Some(old), Some(new)) => Arc::ptr_eq(old, new),
                _ => false,
            };
            assert_eq!(shared, old.is_some() && c != 7, "slot {c}");
        }
    }

    /// How many rows slot `c` of `cp`'s first monitor holds.
    fn slot_rows(cp: &Checkpoint, c: usize) -> usize {
        cp.queue_monitors[0].chunks()[c]
            .as_ref()
            .map_or(0, |rows| rows.len())
    }

    #[test]
    fn default_valued_row_on_the_wire_leaves_no_phantom() {
        // A writer that spelled out an empty half (flow NONE, sequence 0)
        // describes the default entry, which the sparse snapshot must not
        // keep a row for.
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let mut cp = sample_checkpoint(&tw, 501);
        cp.queue_monitors = vec![QueueMonitorSnapshot::from_dense(&[Entry::default(); 8], 5)];
        // One monitor of 8 levels, top 5, its one slot holding one row at
        // level 3 with an increase half of no flow and sequence 0.
        let section = [
            1,
            8,
            5,
            TAG_SAME + 1,
            3,
            u64::from(HALF_INC),
            u64::from(FlowId::NONE.0),
            0,
        ];
        let bytes = with_monitor_section(&tw, &cp, &section);
        let back = decode_one(&bytes, &tw, &mut DecodeBudget::default()).unwrap();
        assert_eq!(back.queue_monitors[0].occupied_len(), 0);
        assert_eq!(back.queue_monitors, cp.queue_monitors);
        assert_eq!(encode_one(&tw, &back), encode_one(&tw, &cp));
    }

    /// A checkpoint whose one monitor of `len` levels holds an increase
    /// half at each of `levels`.
    fn monitor_checkpoint(tw: &TimeWindowConfig, len: usize, levels: &[usize]) -> Checkpoint {
        let mut entries = vec![Entry::default(); len];
        for (i, &level) in levels.iter().enumerate() {
            entries[level].inc = Half {
                flow: FlowId(3),
                seq: 1 + i as u64,
            };
        }
        let mut cp = sample_checkpoint(tw, 501);
        cp.queue_monitors = vec![QueueMonitorSnapshot::from_dense(&entries, 0)];
        cp
    }

    /// Decoding `section` after `prev` fails with `InvalidData` saying
    /// `why`.
    fn refused(tw: &TimeWindowConfig, prev: Option<&Checkpoint>, section: &[u64], why: &str) {
        let bytes = with_monitor_section(tw, &sample_checkpoint(tw, 501), section);
        let err = decode_after(&bytes, tw, prev).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{section:?}");
        assert!(err.to_string().contains(why), "{section:?}: {err}");
    }

    fn accepted(tw: &TimeWindowConfig, prev: Option<&Checkpoint>, section: &[u64]) -> Checkpoint {
        let bytes = with_monitor_section(tw, &sample_checkpoint(tw, 501), section);
        decode_after(&bytes, tw, prev).unwrap()
    }

    const LACKS: &str = "refers to one its predecessor lacks";

    #[test]
    fn reference_in_a_bodys_first_checkpoint_is_refused() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        refused(&tw, None, &[1, 8, 0, TAG_SAME], LACKS);
        let prev = monitor_checkpoint(&tw, 8, &[3]);
        let back = accepted(&tw, Some(&prev), &[1, 8, 0, TAG_SAME]);
        assert_eq!(back.queue_monitors, prev.queue_monitors);
    }

    #[test]
    fn references_to_what_the_predecessor_lacks_are_refused() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let prev = monitor_checkpoint(&tw, 2 * SLOT_LEVELS, &[5]);
        let len = 2 * SLOT_LEVELS as u64;
        accepted(&tw, Some(&prev), &[1, len, 0, TAG_SAME, TAG_EMPTY]);
        // A slot the predecessor has empty.
        refused(&tw, Some(&prev), &[1, len, 0, TAG_EMPTY, TAG_SAME], LACKS);
        // A slot past the predecessor's array.
        let longer = [1, 2 * len, 0, TAG_SAME, TAG_EMPTY, TAG_SAME, TAG_EMPTY];
        refused(&tw, Some(&prev), &longer, LACKS);
        // A monitor the predecessor does not have.
        let second = [2, len, 0, TAG_SAME, TAG_EMPTY, 8, 0, TAG_SAME];
        refused(&tw, Some(&prev), &second, LACKS);
    }

    #[test]
    fn reference_past_a_shrunken_monitor_is_refused() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let prev = monitor_checkpoint(&tw, 2 * SLOT_LEVELS, &[1030, 2000]);
        let shrunk = [1, 1500, 0, TAG_EMPTY, TAG_SAME];
        refused(&tw, Some(&prev), &shrunk, "lie past the array");
        // Shrunk, but not past the rows: they carry over.
        let back = accepted(&tw, Some(&prev), &[1, 2001, 0, TAG_EMPTY, TAG_SAME]);
        assert_eq!(back.queue_monitors[0].len(), 2001);
        assert_eq!(
            back.queue_monitors[0].occupied().collect::<Vec<_>>(),
            prev.queue_monitors[0].occupied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn slot_row_count_above_its_span_is_refused() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let too_many = "more rows than levels";
        refused(&tw, None, &[1, 8, 0, TAG_SAME + 9], too_many);
        let full = SLOT_LEVELS as u64;
        refused(&tw, None, &[1, 2 * full, 0, TAG_SAME + full + 1], too_many);
        // The last slot of 1030 levels has six.
        refused(&tw, None, &[1, 1030, 0, TAG_EMPTY, TAG_SAME + 7], too_many);
    }

    #[test]
    fn rows_outside_their_slot_or_out_of_order_are_refused() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let outside = "outside its slot or out of order";
        let inc = u64::from(HALF_INC);
        let len = 2 * SLOT_LEVELS as u64;
        // One row: level, halves, flow, sequence.
        refused(
            &tw,
            None,
            &[1, len, 0, TAG_SAME + 1, 1500, inc, 3, 1, TAG_EMPTY],
            outside,
        );
        refused(
            &tw,
            None,
            &[1, len, 0, TAG_EMPTY, TAG_SAME + 1, 5, inc, 3, 1],
            outside,
        );
        // Two rows, the second's level a zigzag delta: 5 then 3, 5 twice.
        let pair = |delta: i64| {
            let d = ((delta << 1) ^ (delta >> 63)) as u64; // zigzag
            [
                1,
                len,
                0,
                TAG_SAME + 2,
                5,
                inc,
                3,
                1,
                d,
                inc,
                3,
                2,
                TAG_EMPTY,
            ]
        };
        refused(&tw, None, &pair(-2), outside);
        refused(&tw, None, &pair(0), outside);
        let back = accepted(&tw, None, &pair(2));
        let levels: Vec<u32> = back.queue_monitors[0]
            .occupied()
            .map(|r| r.level())
            .collect();
        assert_eq!(levels, [5, 7]);
    }

    #[test]
    fn v2_tag_stream_in_a_v1_file_is_refused() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let cps = [sample_checkpoint(&tw, 500), sample_checkpoint(&tw, 900)];
        let body = encode_body(&tw, &mut EncodeMemo::default(), &cps);
        assert_eq!(decode_body(&body, &tw, VERSION).unwrap().len(), 2);
        let err = decode_body(&body, &tw, VERSION_V1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let first = encode_one(&tw, &cps[0]);
        let err = decode_body(&first, &tw, VERSION_V1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A checkpoint's head (freeze time 501, no flags), then `windows` and
    /// no monitors, every field a varint.
    fn with_window_section(windows: &[u64]) -> Vec<u8> {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 501);
        bytes.push(0);
        for &field in windows {
            put_varint(&mut bytes, field);
        }
        put_varint(&mut bytes, 0);
        bytes
    }

    /// Decoding `windows` after `prev` fails with `InvalidData` saying
    /// `why`.
    fn window_refused(
        tw: &TimeWindowConfig,
        prev: Option<&Checkpoint>,
        windows: &[u64],
        why: &str,
    ) {
        let err = decode_after(&with_window_section(windows), tw, prev).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{windows:?}");
        assert!(err.to_string().contains(why), "{windows:?}: {err}");
    }

    fn window_accepted(
        tw: &TimeWindowConfig,
        prev: Option<&Checkpoint>,
        windows: &[u64],
    ) -> Checkpoint {
        decode_after(&with_window_section(windows), tw, prev).unwrap()
    }

    /// Zigzag, as the codec writes a signed delta.
    fn zz(delta: i64) -> u64 {
        ((delta << 1) ^ (delta >> 63)) as u64
    }

    #[test]
    fn window_patch_in_a_bodys_first_checkpoint_is_refused() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        // Window 0 a patch of no cells, windows 1 and 2 whole and empty.
        let section = [1, 0, 0];
        window_refused(&tw, None, &section, "no predecessor");
        let prev = sample_checkpoint(&tw, 500);
        let back = window_accepted(&tw, Some(&prev), &section);
        assert!(Arc::ptr_eq(
            back.windows.shared_window(0),
            prev.windows.shared_window(0)
        ));
        assert!(back.windows.window(1).iter().all(|c| *c == Cell::EMPTY));
    }

    #[test]
    fn window_patch_index_out_of_range_is_refused() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let prev = sample_checkpoint(&tw, 500);
        let last = tw.cells() as u64 - 1;
        // One cell: index, flow, cycle delta.
        let one = |idx| [3, idx, 4, zz(-1), 0, 0];
        window_refused(&tw, Some(&prev), &one(last + 1), "index out of range");
        let back = window_accepted(&tw, Some(&prev), &one(last));
        let cell = Cell {
            flow: FlowId(4),
            cycle: 7,
        };
        assert_eq!(back.windows.window(0)[last as usize], cell);
        assert_eq!(back.windows.window(0)[1], prev.windows.window(0)[1]);
    }

    #[test]
    fn window_patch_indices_not_ascending_are_refused() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let prev = sample_checkpoint(&tw, 500);
        // Two cells, the second's index a zigzag delta: 5 then 3, 5
        // twice, 5 then 7.
        let two = |delta| [5, 5, 4, zz(1), zz(delta), 4, zz(1), 0, 0];
        let why = "indices not ascending";
        window_refused(&tw, Some(&prev), &two(-2), why);
        window_refused(&tw, Some(&prev), &two(0), why);
        let back = window_accepted(&tw, Some(&prev), &two(2));
        let occupied: Vec<usize> = (0..tw.cells())
            .filter(|&i| back.windows.window(0)[i] != Cell::EMPTY)
            .collect();
        assert_eq!(occupied, [1, 5, 7, 15]);
    }

    #[test]
    fn window_count_above_its_cells_is_refused() {
        let tw = TimeWindowConfig::new(4, 2, 4, 3);
        let prev = sample_checkpoint(&tw, 500);
        let cells = tw.cells() as u64;
        // One cell more than the window has, each with its three bytes, as
        // a patch and whole.
        for (head, cycle) in [(2 * (cells + 1) + 1, zz(1)), (2 * (cells + 1), 0)] {
            let mut section = vec![head];
            for i in 0..=cells {
                section.extend([if i == 0 { 0 } else { zz(1) }, 4, cycle]);
            }
            section.extend([0, 0]);
            window_refused(&tw, Some(&prev), &section, "count exceeds its cap");
        }
        let full = [2 * cells + 1, 0, 4, zz(1)];
        let mut section: Vec<u64> = full.to_vec();
        for _ in 1..cells {
            section.extend([zz(1), 4, zz(1)]);
        }
        section.extend([0, 0]);
        let back = window_accepted(&tw, Some(&prev), &section);
        assert!(back.windows.window(0).iter().all(|c| c.flow == FlowId(4)));
    }

    #[test]
    fn windows_shared_with_the_predecessor_are_not_charged() {
        let tw = TimeWindowConfig::new(4, 2, 12, 4);
        let window = tw.cells() as u64 * std::mem::size_of::<Cell>() as u64;
        let mut dense = vec![vec![Cell::EMPTY; tw.cells()]; 4];
        for window in &mut dense {
            window[3] = Cell {
                flow: FlowId(1),
                cycle: 2,
            };
            window[9] = window[3];
        }
        let cp = |frozen_at, dense: &Vec<Vec<Cell>>| Checkpoint {
            frozen_at,
            on_demand: false,
            trigger: None,
            windows: TimeWindowSnapshot::from_parts(tw, dense.clone(), false),
            queue_monitors: vec![],
        };
        let mut cps = vec![cp(1, &dense), cp(2, &dense)];
        dense[0][9].cycle = 5;
        cps.push(cp(3, &dense));
        let body = encode_body(&tw, &mut EncodeMemo::default(), &cps);
        // Four windows, then none, then window 0 patched in a copy.
        let decode = |budget| {
            let (mut cursor, mut state) = (body.as_slice(), CodecState::default());
            let mut budget = DecodeBudget::new(budget);
            let mut back: Vec<Checkpoint> = Vec::new();
            while !cursor.is_empty() {
                let next = decode_checkpoint(
                    &mut cursor,
                    &tw,
                    VERSION,
                    &mut state,
                    &mut budget,
                    back.last(),
                )?;
                back.push(next);
            }
            io::Result::Ok(back)
        };
        assert!(decode(5 * window - 1).is_err());
        let back = decode(5 * window).unwrap();
        for (back, cp) in back.iter().zip(&cps) {
            assert!(same(back, cp));
        }
        for w in 0..tw.t {
            let shared = |a: &Checkpoint, b: &Checkpoint| {
                Arc::ptr_eq(a.windows.shared_window(w), b.windows.shared_window(w))
            };
            assert!(shared(&back[0], &back[1]), "window {w}");
            assert_eq!(shared(&back[1], &back[2]), w > 0, "window {w}");
        }
    }

    /// The version-1 encoder as it ran over dense snapshots: every window
    /// whole, every monitor array scanned once to count and once to emit,
    /// no memo. The writer no longer produces version 1; this is what the
    /// v1 decoder is checked against. A default entry at a level of
    /// `phantoms` (modulo each monitor's length) is written out as a row,
    /// as a writer that spelled out empty halves would.
    fn encode_checkpoint_dense(
        out: &mut Vec<u8>,
        tw: &TimeWindowConfig,
        state: &mut CodecState,
        cp: &Checkpoint,
        phantoms: &[usize],
    ) {
        reference_head(out, tw, VERSION_V1, state, None, cp);
        put_varint(out, cp.queue_monitors.len() as u64);
        let mut prev_seq = None;
        for monitor in &cp.queue_monitors {
            let entries = monitor.to_dense();
            put_varint(out, entries.len() as u64);
            put_varint(out, u64::from(monitor.top));
            let rows = spelled(&entries, 0..entries.len(), phantoms);
            put_varint(out, rows.len() as u64);
            let mut prev_idx = None;
            for (level, entry) in &rows {
                dense_row(out, &mut prev_idx, &mut prev_seq, *level, entry);
            }
        }
    }

    /// The rows a reference encoder writes for `levels` of `entries`: the
    /// occupied ones, and the default entries at `phantoms` (modulo the
    /// length), ascending.
    fn spelled(
        entries: &[Entry],
        levels: std::ops::Range<usize>,
        phantoms: &[usize],
    ) -> Vec<(u64, Entry)> {
        let phantom = |level: usize| phantoms.iter().any(|p| p % entries.len() == level);
        levels
            .filter(|&level| entries[level] != Entry::default() || phantom(level))
            .map(|level| (level as u64, entries[level]))
            .collect()
    }

    /// The reference encoders' delta.
    fn delta(out: &mut Vec<u8>, prev: &mut Option<u64>, value: u64) {
        match *prev {
            None => put_varint(out, value),
            Some(p) => put_zigzag(out, value.wrapping_sub(p) as i64),
        }
        *prev = Some(value);
    }

    /// The freeze time, flags, trigger and windows of `cp` in format
    /// `version`, from first principles: a version-3 window after a
    /// predecessor (`prev`) is a patch of the cells that differ from the
    /// predecessor's when there are none or fewer than its occupied cells,
    /// and every other window is whole.
    fn reference_head(
        out: &mut Vec<u8>,
        tw: &TimeWindowConfig,
        version: u8,
        state: &mut CodecState,
        prev: Option<&Checkpoint>,
        cp: &Checkpoint,
    ) {
        delta(out, &mut state.prev_frozen, cp.frozen_at);
        out.push(
            (u8::from(cp.on_demand) * FLAG_ON_DEMAND)
                | (u8::from(cp.trigger.is_some()) * FLAG_TRIGGER)
                | (u8::from(cp.windows.is_filtered()) * FLAG_FILTERED),
        );
        if let Some(trigger) = cp.trigger {
            put_varint(out, trigger.from);
            put_varint(out, trigger.to.saturating_sub(trigger.from));
        }
        for w in 0..tw.t {
            let cells = cp.windows.window(w);
            let occupied = cells.iter().filter(|c| **c != Cell::EMPTY).count();
            if let Some(before) = prev.filter(|_| version == VERSION) {
                let before = before.windows.window(w);
                let changed: Vec<usize> = (0..cells.len())
                    .filter(|&i| before[i] != cells[i])
                    .collect();
                if changed.is_empty() || changed.len() < occupied {
                    put_varint(out, 2 * changed.len() as u64 + 1);
                    let mut prev_idx = None;
                    for i in changed {
                        delta(out, &mut prev_idx, i as u64);
                        put_varint(out, u64::from(cells[i].flow.0));
                        put_zigzag(out, cells[i].cycle.wrapping_sub(before[i].cycle) as i64);
                    }
                    continue;
                }
            }
            let head = if version == VERSION {
                2 * occupied
            } else {
                occupied
            };
            put_varint(out, head as u64);
            let (mut prev_idx, mut prev_cycle) = (None, None);
            for (idx, cell) in cells.iter().enumerate() {
                if *cell != Cell::EMPTY {
                    delta(out, &mut prev_idx, idx as u64);
                    put_varint(out, u64::from(cell.flow.0));
                    delta(out, &mut prev_cycle, cell.cycle);
                }
            }
        }
    }

    /// The reference encoders' row.
    fn dense_row(
        out: &mut Vec<u8>,
        prev_idx: &mut Option<u64>,
        prev_seq: &mut Option<u64>,
        level: u64,
        entry: &Entry,
    ) {
        delta(out, prev_idx, level);
        let halves = (u8::from(entry.inc != Half::default()) * HALF_INC)
            | (u8::from(entry.dec != Half::default()) * HALF_DEC);
        // The default entry is spelled out as a default increase half.
        let halves = halves.max(HALF_INC);
        out.push(halves);
        for (flag, half) in [(HALF_INC, &entry.inc), (HALF_DEC, &entry.dec)] {
            if halves & flag != 0 {
                put_varint(out, u64::from(half.flow.0));
                delta(out, prev_seq, half.seq);
            }
        }
    }

    /// Format `version` 2 or 3 from first principles, for the memoising
    /// encoder to be checked against: dense arrays, windows as
    /// [`reference_head`] writes them, a slot "same" when its occupied
    /// entries equal those of the slot in `prev` (the previous checkpoint of
    /// the body), every other slot's rows encoded afresh, with the default
    /// entries at `phantoms` spelled out as [`encode_checkpoint_dense`]
    /// does.
    fn encode_checkpoint_reference(
        out: &mut Vec<u8>,
        tw: &TimeWindowConfig,
        version: u8,
        state: &mut CodecState,
        prev: Option<&Checkpoint>,
        cp: &Checkpoint,
        phantoms: &[usize],
    ) {
        reference_head(out, tw, version, state, prev, cp);
        let slot = |entries: &[Entry], c: usize, phantoms: &[usize]| {
            spelled(
                entries,
                c * SLOT_LEVELS..((c + 1) * SLOT_LEVELS).min(entries.len()),
                phantoms,
            )
        };
        let occupied = |entries: &[Entry], c: usize| slot(entries, c, &[]);
        put_varint(out, cp.queue_monitors.len() as u64);
        for (m, monitor) in cp.queue_monitors.iter().enumerate() {
            let entries = monitor.to_dense();
            put_varint(out, entries.len() as u64);
            put_varint(out, u64::from(monitor.top));
            let before = prev
                .and_then(|p| p.queue_monitors.get(m))
                .map(|b| b.to_dense());
            for c in 0..entries.len().div_ceil(SLOT_LEVELS) {
                let rows = occupied(&entries, c);
                let spelled = slot(&entries, c, phantoms);
                if spelled.is_empty() {
                    put_varint(out, TAG_EMPTY);
                } else if !rows.is_empty()
                    && before.as_ref().is_some_and(|b| occupied(b, c) == rows)
                {
                    put_varint(out, TAG_SAME);
                } else {
                    put_varint(out, TAG_SAME + spelled.len() as u64);
                    let (mut prev_idx, mut prev_seq) = (None, None);
                    for (level, entry) in &spelled {
                        dense_row(out, &mut prev_idx, &mut prev_seq, *level, entry);
                    }
                }
            }
        }
    }

    #[test]
    fn window_count_lands_in_front_of_its_runs_at_every_varint_width() {
        // 1-, 2- and 3-byte heads (`2·n`) at both sides of each width, the
        // last a full window.
        let tw = TimeWindowConfig::new(4, 2, 14, 2);
        for occupied in [0usize, 1, 63, 64, 300, 8_191, 8_192, 16_384] {
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
            cp.queue_monitors.clear();
            let mut reference = Vec::new();
            let mut state = CodecState::default();
            encode_checkpoint_reference(&mut reference, &tw, VERSION, &mut state, None, &cp, &[]);
            let bytes = encode_one(&tw, &cp);
            assert!(bytes == reference, "{occupied} occupied cells");
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

    /// Up to three slots, so slot borders and short last slots occur.
    fn arb_monitor() -> impl Strategy<Value = QueueMonitorSnapshot> {
        (
            prop_oneof![1usize..200, 1usize..3 * SLOT_LEVELS],
            prop::collection::vec((any::<usize>(), arb_half(), arb_half()), 0..60),
            any::<u32>(),
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

    /// Runs of checkpoints, each `true` starting a new body, whose monitors
    /// often repeat the previous checkpoint's: the same snapshots (shared
    /// chunks), the same rows in new allocations, the same with one level
    /// rewritten, or the same with one monitor cut short. Windows repeat the
    /// same ways: shared, copied, or copied with a cell rewritten or
    /// emptied.
    fn arb_run(tw: TimeWindowConfig) -> impl Strategy<Value = Vec<(Checkpoint, bool)>> {
        let step = (
            arb_checkpoint(tw),
            (0u8..5, 0u8..4),
            0u8..4,
            any::<usize>(),
            arb_half(),
        );
        prop::collection::vec(step, 1..7).prop_map(move |steps| {
            let mut run: Vec<(Checkpoint, bool)> = Vec::new();
            for (mut cp, (reuse, reuse_windows), rotate, at, half) in steps {
                if let Some((last, _)) = run.last() {
                    let filtered = cp.windows.is_filtered();
                    let mut dense: Vec<Vec<Cell>> =
                        (0..tw.t).map(|w| last.windows.window(w).to_vec()).collect();
                    match reuse_windows {
                        0 => {}
                        1 => cp.windows = last.windows.clone(),
                        _ => {
                            if reuse_windows == 3 {
                                let cell = &mut dense[at % usize::from(tw.t)][at % tw.cells()];
                                *cell = match half == Half::default() {
                                    true => Cell::EMPTY,
                                    false => Cell {
                                        flow: half.flow,
                                        cycle: half.seq,
                                    },
                                };
                            }
                            cp.windows = TimeWindowSnapshot::from_parts(tw, dense, filtered);
                        }
                    }
                    let last = &last.queue_monitors;
                    match reuse {
                        0 => {}
                        1 => cp.queue_monitors = last.clone(),
                        2 => {
                            cp.queue_monitors = last
                                .iter()
                                .map(|m| QueueMonitorSnapshot::from_dense(&m.to_dense(), m.top))
                                .collect()
                        }
                        _ => {
                            cp.queue_monitors = last.clone();
                            if let Some(m) = cp.queue_monitors.get_mut(at % last.len().max(1)) {
                                let mut dense = m.to_dense();
                                let level = at % dense.len();
                                if reuse == 3 {
                                    dense[level].inc = half;
                                } else {
                                    dense.truncate(level + 1);
                                }
                                let top = m.top.min(level as u32);
                                *m = QueueMonitorSnapshot::from_dense(&dense, top);
                            }
                        }
                    }
                }
                run.push((cp, run.is_empty() || rotate == 0));
            }
            run
        })
    }

    proptest! {
        /// One memo across a run's bodies writes what the version-3
        /// reference writes; every body decodes to its checkpoints, and
        /// re-encoding the decoded run through a fresh memo gives the same
        /// bytes. The version-2 reference's bodies of the same run decode to
        /// the same checkpoints through the version-2 path.
        #[test]
        fn v3_runs_match_the_reference_and_reencode_identically(
            run in arb_run(TimeWindowConfig::new(4, 2, 4, 3)),
        ) {
            let tw = TimeWindowConfig::new(4, 2, 4, 3);
            let mut memo = EncodeMemo::default();
            let (mut bodies, mut reference, mut v2) = (Vec::new(), Vec::new(), Vec::new());
            let mut states: (CodecState, CodecState, CodecState) = Default::default();
            let mut segments: Vec<Vec<Checkpoint>> = Vec::new();
            for (cp, starts) in &run {
                if *starts {
                    bodies.push(Vec::new());
                    reference.push(Vec::new());
                    v2.push(Vec::new());
                    segments.push(Vec::new());
                    states = Default::default();
                }
                let prev = segments.last().and_then(|s| s.last());
                encode_checkpoint(bodies.last_mut().unwrap(), &tw, &mut states.0, &mut memo, cp).unwrap();
                encode_checkpoint_reference(reference.last_mut().unwrap(), &tw, VERSION, &mut states.1, prev, cp, &[]);
                encode_checkpoint_reference(v2.last_mut().unwrap(), &tw, VERSION_V2, &mut states.2, prev, cp, &[]);
                segments.last_mut().unwrap().push(cp.clone());
            }
            prop_assert_eq!(&bodies, &reference);

            let mut memo = EncodeMemo::default();
            for ((body, v2), cps) in bodies.iter().zip(&v2).zip(&segments) {
                for (body, version) in [(body, VERSION), (v2, VERSION_V2)] {
                    let back = decode_body(body, &tw, version)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    prop_assert_eq!(back.len(), cps.len());
                    for (back, cp) in back.iter().zip(cps) {
                        prop_assert!(same(back, cp));
                    }
                    if version == VERSION {
                        prop_assert_eq!(&encode_body(&tw, &mut memo, &back), body);
                    }
                }
            }
        }

        /// Bodies the version-1 writer produced read back through the
        /// version-1 path.
        #[test]
        fn dense_v1_bodies_round_trip_through_the_v1_path(
            cps in prop::collection::vec(arb_checkpoint(TimeWindowConfig::new(4, 2, 4, 3)), 1..5),
        ) {
            let tw = TimeWindowConfig::new(4, 2, 4, 3);
            let (mut body, mut state) = (Vec::new(), CodecState::default());
            for cp in &cps {
                encode_checkpoint_dense(&mut body, &tw, &mut state, cp, &[]);
            }
            let back = decode_body(&body, &tw, VERSION_V1)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(back.len(), cps.len());
            for (back, cp) in back.iter().zip(&cps) {
                prop_assert!(same(back, cp));
            }
        }
    }

    /// The decoder as it was before monitors were built as chunks: each
    /// monitor a dense array, charged whole, filled — a reference copying
    /// the predecessor's rows level by level — then thinned by `from_dense`.
    /// The chunk-building decoder is checked against it.
    fn decode_checkpoint_dense(
        cursor: &mut &[u8],
        tw: &TimeWindowConfig,
        version: u8,
        state: &mut CodecState,
        budget: &mut DecodeBudget,
        prev: Option<&Checkpoint>,
    ) -> io::Result<Checkpoint> {
        let mut cp = read_head(cursor, tw, version, state, budget, prev)?;
        let n_monitors = codec::len(cursor, MAX_MONITORS)?;
        let mut prev_seq: Option<u64> = None;
        for m in 0..n_monitors {
            let n_entries = codec::len(cursor, u32::MAX as usize)?;
            budget.charge(n_entries as u64 * std::mem::size_of::<Entry>() as u64)?;
            let top = codec::len(cursor, u32::MAX as usize)? as u32;
            if n_entries > 0 && u64::from(top) >= n_entries as u64 {
                return Err(invalid("queue-monitor top beyond entry array"));
            }
            let mut entries = vec![Entry::default(); n_entries];
            if version == VERSION_V1 {
                dense_rows_v1(cursor, &mut entries, &mut prev_seq)?;
            } else {
                let before = prev.and_then(|p| p.queue_monitors.get(m));
                dense_slots(cursor, &mut entries, before)?;
            }
            cp.queue_monitors
                .push(QueueMonitorSnapshot::from_dense(&entries, top));
        }
        Ok(cp)
    }

    /// [`decode_checkpoint_dense`]'s version-1 rows.
    fn dense_rows_v1(
        cursor: &mut &[u8],
        entries: &mut [Entry],
        prev_seq: &mut Option<u64>,
    ) -> io::Result<()> {
        let occupied = codec::len(cursor, entries.len())?;
        let mut prev_idx: Option<u64> = None;
        let mut last_idx: Option<usize> = None;
        for _ in 0..occupied {
            let idx = read_delta_u64(cursor, &mut prev_idx)?;
            if idx >= entries.len() as u64 || last_idx.is_some_and(|l| idx as usize <= l) {
                return Err(invalid("monitor entry index out of order or out of range"));
            }
            last_idx = Some(idx as usize);
            entries[idx as usize] = read_entry(cursor, prev_seq)?;
        }
        Ok(())
    }

    /// [`decode_checkpoint_dense`]'s version-2 slots.
    fn dense_slots(
        cursor: &mut &[u8],
        entries: &mut [Entry],
        before: Option<&QueueMonitorSnapshot>,
    ) -> io::Result<()> {
        for (c, span) in entries.chunks_mut(SLOT_LEVELS).enumerate() {
            let base = c * SLOT_LEVELS;
            match codec::varint(cursor)? {
                TAG_EMPTY => {}
                TAG_SAME => {
                    let rows = before
                        .and_then(|b| b.chunks().get(c)?.as_deref())
                        .ok_or_else(|| invalid(LACKS))?;
                    for row in rows {
                        let Some(entry) = span.get_mut((row.level() as usize).wrapping_sub(base))
                        else {
                            return Err(invalid("referenced monitor rows lie past the array"));
                        };
                        *entry = row.entry();
                    }
                }
                tag => {
                    let n = tag - TAG_SAME;
                    if n > span.len() as u64 {
                        return Err(invalid("monitor slot holds more rows than levels"));
                    }
                    let (mut prev_idx, mut prev_seq) = (None, None);
                    let mut next = 0u64;
                    for _ in 0..n {
                        let at = read_delta_u64(cursor, &mut prev_idx)?.wrapping_sub(base as u64);
                        if at < next || at >= span.len() as u64 {
                            return Err(invalid("monitor row outside its slot or out of order"));
                        }
                        next = at + 1;
                        span[at as usize] = read_entry(cursor, &mut prev_seq)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// One body of `cps` in format `version`, through the reference
    /// encoders, with the default entries at `phantoms` spelled out.
    fn reference_body(
        tw: &TimeWindowConfig,
        version: u8,
        cps: &[Checkpoint],
        phantoms: &[usize],
    ) -> Vec<u8> {
        let (mut body, mut state) = (Vec::new(), CodecState::default());
        let mut prev = None;
        for cp in cps {
            if version == VERSION_V1 {
                encode_checkpoint_dense(&mut body, tw, &mut state, cp, phantoms);
            } else {
                encode_checkpoint_reference(&mut body, tw, version, &mut state, prev, cp, phantoms);
            }
            prev = Some(cp);
        }
        body
    }

    proptest! {
        /// The chunk-building decoder against the dense one it replaced,
        /// over version 1, 2 and 3 bodies of runs whose monitors repeat,
        /// shrink and carry default-valued rows on the wire. Both decode
        /// every body to its checkpoints, and re-encoding them gives the
        /// body written without the default-valued rows. With a byte of the
        /// body flipped, whatever the dense decoder accepts the sparse one
        /// decodes the same, and the sparse one refuses only what the dense
        /// one does, or what the dense array did not fit the budget for.
        #[test]
        fn sparse_decode_matches_the_dense_decoder(
            run in arb_run(TimeWindowConfig::new(4, 2, 4, 3)),
            phantoms in prop::collection::vec(any::<usize>(), 0..4),
            at in any::<usize>(),
            flip in 1u8..=255,
        ) {
            let tw = TimeWindowConfig::new(4, 2, 4, 3);
            let mut segments: Vec<Vec<Checkpoint>> = Vec::new();
            for (cp, starts) in &run {
                if *starts {
                    segments.push(Vec::new());
                }
                segments.last_mut().unwrap().push(cp.clone());
            }
            let budget = || DecodeBudget::new(8 << 20);
            let dense = |body: &[u8], version| {
                decode_body_with(body, &tw, version, budget(), decode_checkpoint_dense)
            };
            let sparse = |body: &[u8], version| {
                decode_body_with(body, &tw, version, budget(), decode_checkpoint)
            };
            for version in [VERSION_V1, VERSION_V2, VERSION] {
                for cps in &segments {
                    let plain = reference_body(&tw, version, cps, &[]);
                    let spelled = reference_body(&tw, version, cps, &phantoms);
                    for body in [&plain, &spelled] {
                        let back = sparse(body, version).map_err(|e| TestCaseError::fail(e.to_string()))?;
                        let reference = dense(body, version).map_err(|e| TestCaseError::fail(e.to_string()))?;
                        prop_assert_eq!(back.len(), cps.len());
                        for ((back, reference), cp) in back.iter().zip(&reference).zip(cps) {
                            prop_assert!(same(back, reference));
                            prop_assert!(same(back, cp));
                        }
                        prop_assert_eq!(&reference_body(&tw, version, &back, &[]), &plain);
                        if version == VERSION {
                            prop_assert_eq!(&encode_body(&tw, &mut EncodeMemo::default(), &back), &plain);
                        }
                    }
                    let mut flipped = spelled.clone();
                    let i = at % flipped.len();
                    flipped[i] ^= flip;
                    match (sparse(&flipped, version), dense(&flipped, version)) {
                        (Ok(back), Ok(reference)) => {
                            prop_assert_eq!(back.len(), reference.len());
                            for (back, reference) in back.iter().zip(&reference) {
                                prop_assert!(same(back, reference));
                            }
                        }
                        (Err(e), Ok(_)) => prop_assert!(false, "only the sparse decoder refused: {}", e),
                        (Ok(_), Err(e)) => prop_assert!(e.to_string().contains("budget exhausted"), "{}", e),
                        (Err(_), Err(_)) => {}
                    }
                }
            }
        }
    }

    /// Two live monitors frozen into checkpoints that go through one
    /// memoising encoder and through the reference, a "segment" at a time:
    /// both restart their `CodecState` on rotation, the memo does not.
    struct Chain {
        tw: TimeWindowConfig,
        monitors: [QueueMonitor; 2],
        last: Option<Checkpoint>,
        /// Whether `last` is in the open segment.
        follows: bool,
        memo: EncodeMemo,
        states: (CodecState, CodecState),
        bodies: (Vec<u8>, Vec<u8>),
        now: u64,
    }

    impl Chain {
        fn new() -> Chain {
            Chain {
                tw: TimeWindowConfig::new(4, 2, 4, 3),
                monitors: [
                    QueueMonitor::new(4 * SLOT_LEVELS, 1),
                    QueueMonitor::new(2 * SLOT_LEVELS + 17, 1),
                ],
                last: None,
                follows: false,
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
            self.follows = false;
        }

        /// Freeze (`rebuild`: then copy every snapshot into new
        /// allocations), encode both ways, compare everything written so
        /// far; returns how many rows the checkpoint shares by pointer with
        /// the last one.
        fn checkpoint(&mut self, on_demand: bool, rebuild: bool) -> usize {
            self.now += 100;
            let mut cp = sample_checkpoint(&self.tw, self.now);
            cp.on_demand = on_demand;
            cp.trigger = on_demand.then(|| QueryInterval::new(self.now / 2, self.now));
            cp.queue_monitors = self.monitors.iter_mut().map(|m| m.freeze()).collect();
            if rebuild {
                for m in &mut cp.queue_monitors {
                    *m = QueueMonitorSnapshot::from_dense(&m.to_dense(), m.top);
                }
            }
            encode_checkpoint(
                &mut self.bodies.0,
                &self.tw,
                &mut self.states.0,
                &mut self.memo,
                &cp,
            )
            .unwrap();
            let prev = self.last.as_ref().filter(|_| self.follows);
            encode_checkpoint_reference(
                &mut self.bodies.1,
                &self.tw,
                VERSION,
                &mut self.states.1,
                prev,
                &cp,
                &[],
            );
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
            self.follows = true;
            shared
        }
    }

    #[test]
    fn memoised_chunks_encode_as_the_reference_does_case_by_case() {
        let span = SLOT_LEVELS;
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
        assert_eq!(chain.checkpoint(false, false), 0, "nothing to share yet");
        let all = 4 * 3 + 4;
        assert_eq!(
            chain.checkpoint(false, false),
            all,
            "an idle period shares every chunk"
        );

        chain.write(0, false, 9, span); // first row of chunk 1
        assert_eq!(chain.checkpoint(false, false), all - 3);
        chain.write(0, true, 9, 2 * span - 9); // last row of chunk 1
        assert_eq!(chain.checkpoint(false, false), all - 3);
        // A new row directly before unchanged chunk 2: chunk 2 is still one
        // reference, its chains restart in its own slot.
        chain.write(0, true, 9, 2 * span - 1);
        assert_eq!(chain.checkpoint(false, false), all - 3);
        let all = all + 1;

        assert_eq!(
            chain.checkpoint(true, false),
            all,
            "an on-demand read in between"
        );
        chain.rotate();
        assert_eq!(
            chain.checkpoint(false, false),
            all,
            "the memo outlives the segment, which starts whole"
        );
        // The same rows in new allocations still refer back…
        assert_eq!(chain.checkpoint(false, true), 0);
        // …and the next freeze shares nothing with those copies.
        assert_eq!(chain.checkpoint(false, false), 0);

        // Monitor 0 empties: its slots turn to empty tags.
        chain.monitors[0].clear();
        assert_eq!(chain.checkpoint(false, false), 4);
        chain.write(0, true, 11, 3 * span + 1);
        assert_eq!(
            chain.checkpoint(false, false),
            4,
            "a chunk that was empty holds a row again"
        );
        chain.write(1, true, 12, 2 * span + 16); // the clamped last level of monitor 1
        assert_eq!(chain.checkpoint(false, false), 1 + 3);
    }

    /// `(monitor, enqueue, flow, depth)`, depths biased to chunk borders.
    fn arb_write() -> impl Strategy<Value = (usize, bool, u32, usize)> {
        let span = SLOT_LEVELS;
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
        /// on-demand read, a new segment or a rebuilt copy, then a freeze.
        #[test]
        fn memoised_chains_match_the_reference(
            steps in prop::collection::vec(
                (prop::collection::vec(arb_write(), 0..6), 0u8..12, any::<bool>(), 0u8..4, 0u8..6),
                1..24,
            ),
        ) {
            let mut chain = Chain::new();
            for (writes, clear, on_demand, rotate, rebuild) in steps {
                for (monitor, enqueue, flow, depth) in writes {
                    chain.write(monitor, enqueue, flow, depth);
                }
                if let Some(m) = chain.monitors.get_mut(usize::from(clear)) {
                    m.clear();
                }
                if rotate == 0 {
                    chain.rotate();
                }
                chain.checkpoint(on_demand, rebuild == 0);
            }
        }
    }
}
