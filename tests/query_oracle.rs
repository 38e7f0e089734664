//! The time-window query against a reference model.
//!
//! `reference` is the query `pq-core` shipped before it learned to read
//! only the cells an interval can touch — every cell of every window,
//! spans merged into one coverage list, the slice walk over checkpoints —
//! kept here, verbatim in logic, as the oracle. Its one edit is the fix
//! that came with the rewrite: span arithmetic is checked, and a cell
//! whose span does not fit in `u64` nanoseconds never counts (the old
//! code panicked in debug builds and made up a wrapped span in release).
//!
//! Seeded snapshots — driven through the real ring buffers, or written
//! cell by cell with stale laps, future laps and garbage cycles — are
//! queried over intervals built to land on the read set's edges: inside
//! one cell, n − 1 / n / n + 1 cells wide, wrapping the ring, across
//! stale laps, outside the data and next to `u64::MAX`. Every flow's
//! estimate must match by `f64::to_bits`. Whole answers from
//! `query_time_windows` and `StoreReader` are compared the same way, for
//! programs polled at random and polled so densely that
//! every slice is wider than every ring.
//!
//! The query's two shortcuts get cases of their own: deep windows holding
//! only stale cells (skipped by their cycle bound), deep windows testing
//! cells against hundreds of disjoint shallow spans (the coverage merged on
//! demand), snapshots queried before and after `filter()` and after
//! `clone()`, and occupied cells with cycle `u64::MAX` (the bound must then
//! never skip). A tally counts how often each shortcut applied.

use printqueue::core::coefficient::Coefficients;
use printqueue::core::control::{AnalysisProgram, Checkpoint, ControlConfig};
use printqueue::core::params::TimeWindowConfig;
use printqueue::core::printqueue::PrintQueueConfig;
use printqueue::core::snapshot::{QueryInterval, TimeWindowSnapshot};
use printqueue::core::time_windows::{Cell, TimeWindowSet};
use printqueue::packet::{FlowId, Nanos};
use printqueue::store::{SegmentPolicy, SharedStoreWriter, StoreReader, StoreWriter};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::Cursor;

mod reference {
    use printqueue::core::coefficient::Coefficients;
    use printqueue::core::control::Checkpoint;
    use printqueue::core::snapshot::{QueryInterval, TimeWindowSnapshot};
    use printqueue::packet::{FlowId, Nanos};
    use std::collections::HashMap;

    /// `[start, end)` of a cell, or `None` past `u64` ns.
    fn span(cycle: u64, index: usize, k: u8, shift: u32) -> Option<(Nanos, Nanos)> {
        let raw = cycle.checked_mul(1 << k)? | index as u64;
        let end = raw.checked_add(1)?.checked_mul(1 << shift)?;
        Some((raw << shift, end))
    }

    pub fn query(
        snap: &TimeWindowSnapshot,
        interval: QueryInterval,
        coeffs: &Coefficients,
    ) -> HashMap<FlowId, f64> {
        let config = *snap.config();
        let mut counts: HashMap<FlowId, f64> = HashMap::new();
        let mut covered = Coverage::default();
        let q_start = interval.from;
        let q_end = interval.to.saturating_add(1);
        for w in 0..config.t {
            let weight = 1.0 / coeffs.coefficient[usize::from(w)];
            let shift = config.shift(w);
            let k = config.k;
            let cell_period = config.cell_period(w) as f64;
            let mut new_spans = Vec::new();
            for (index, cell) in snap.window(w).iter().enumerate() {
                if cell.is_empty() {
                    continue;
                }
                let Some((start, end)) = span(cell.cycle, index, k, shift) else {
                    continue;
                };
                let start = start.max(q_start);
                let end = end.min(q_end);
                if end <= start {
                    continue;
                }
                let uncovered = covered.uncovered_len(start, end);
                if uncovered > 0 {
                    *counts.entry(cell.flow).or_insert(0.0) +=
                        weight * uncovered as f64 / cell_period;
                }
                new_spans.push((start, end));
            }
            covered.add_all(new_spans);
        }
        counts
    }

    /// The live program's slice walk over `checkpoints`.
    pub fn query_slices(
        checkpoints: &[Checkpoint],
        interval: QueryInterval,
        coeffs: &Coefficients,
    ) -> HashMap<FlowId, f64> {
        let mut result: HashMap<FlowId, f64> = HashMap::new();
        let mut prev_frozen_at: Option<Nanos> = None;
        for cp in checkpoints {
            let slice_from = interval.from.max(prev_frozen_at.map_or(0, |t| t + 1));
            let slice_to = interval.to.min(cp.frozen_at);
            if !cp.on_demand {
                prev_frozen_at = Some(cp.frozen_at);
            }
            if slice_from > slice_to || cp.on_demand {
                continue;
            }
            let est = query(
                &cp.windows,
                QueryInterval::new(slice_from, slice_to),
                coeffs,
            );
            for (flow, n) in est {
                *result.entry(flow).or_insert(0.0) += n;
            }
        }
        result
    }

    #[derive(Default)]
    struct Coverage {
        spans: Vec<(Nanos, Nanos)>,
    }

    impl Coverage {
        fn uncovered_len(&self, start: Nanos, end: Nanos) -> Nanos {
            if end <= start {
                return 0;
            }
            let mut idx = self.spans.partition_point(|s| s.0 < start);
            idx = idx.saturating_sub(1);
            let mut covered = 0;
            for &(s, e) in &self.spans[idx..] {
                if s >= end {
                    break;
                }
                let lo = s.max(start);
                let hi = e.min(end);
                if hi > lo {
                    covered += hi - lo;
                }
            }
            (end - start) - covered
        }

        fn add_all(&mut self, mut new_spans: Vec<(Nanos, Nanos)>) {
            if new_spans.is_empty() {
                return;
            }
            new_spans.append(&mut self.spans);
            new_spans.sort_unstable();
            let mut merged: Vec<(Nanos, Nanos)> = Vec::with_capacity(new_spans.len());
            for (s, e) in new_spans {
                match merged.last_mut() {
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => merged.push((s, e)),
                }
            }
            self.spans = merged;
        }
    }
}

fn random_config(rng: &mut SmallRng) -> TimeWindowConfig {
    TimeWindowConfig::new(
        rng.gen_range(0..=3),
        rng.gen_range(1..=2),
        rng.gen_range(2..=6),
        rng.gen_range(1..=4),
    )
}

/// Coefficients far from 1, so every window's weight shows in the bits.
fn random_coeffs(rng: &mut SmallRng, config: &TimeWindowConfig) -> Coefficients {
    let t = usize::from(config.t);
    Coefficients {
        coefficient: (0..t).map(|_| rng.gen_range(0.05..1.0)).collect(),
        z: vec![1.0; t],
    }
}

/// A few flows, so one flow's sum collects cells from many windows.
fn random_flow(rng: &mut SmallRng) -> FlowId {
    FlowId(rng.gen_range(0..12))
}

/// Where a case's data sits: near zero, mid-range, or within a few set
/// periods of `u64::MAX`.
fn random_base(rng: &mut SmallRng, config: &TimeWindowConfig) -> Nanos {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(0..=4 * config.set_period()),
        1 | 2 => rng.gen_range(0..=1u64 << 50),
        _ => u64::MAX - rng.gen_range(0..=4 * config.set_period()),
    }
}

/// A snapshot of real ring buffers: records at increasing timestamps from
/// `base`, with bursts, lulls longer than a window, and laps; and the
/// last record's timestamp.
fn driven_snapshot(
    rng: &mut SmallRng,
    config: TimeWindowConfig,
    base: Nanos,
) -> (TimeWindowSnapshot, Nanos) {
    let mut set = TimeWindowSet::new(config);
    let cp0 = config.cell_period(0);
    let mut t = base;
    for _ in 0..rng.gen_range(1..=300) {
        let gap = match rng.gen_range(0..10) {
            0 => rng.gen_range(0..=config.window_period(config.t - 1)),
            1 if rng.gen_bool(0.3) => rng.gen_range(0..=3 * config.set_period()),
            _ => rng.gen_range(0..=2 * cp0),
        };
        t = t.saturating_add(gap);
        set.record(random_flow(rng), t);
    }
    let mut snap = TimeWindowSnapshot::capture(&set);
    if rng.gen_bool(0.5) {
        snap.filter();
    }
    (snap, t)
}

/// What a written snapshot's occupied cells hold.
#[derive(Clone, Copy, PartialEq)]
enum Laps {
    /// Mostly the latest lap, some stale, future and garbage cycles.
    Mixed,
    /// Window 0 as in `Mixed`; deeper windows only laps at least two
    /// cycles old, so a query reaching back one ring can skip them.
    DeepStale,
}

/// A snapshot written cell by cell: each occupied cell holds its index's
/// latest lap at or before `base`, an older (stale) lap, a future lap, or
/// — rarely — a cycle no timestamp produces, including the ones whose
/// spans end at or past 2^64.
fn written_snapshot(
    rng: &mut SmallRng,
    config: TimeWindowConfig,
    base: Nanos,
    laps: Laps,
) -> TimeWindowSnapshot {
    let k = config.k;
    let n = config.cells();
    let windows = (0..config.t)
        .map(|w| {
            let anchor = base >> config.shift(w);
            (0..n)
                .map(|index| {
                    if rng.gen_bool(0.3) {
                        return Cell::EMPTY;
                    }
                    let latest = if index as u64 <= anchor & (n as u64 - 1) {
                        Some(anchor >> k)
                    } else {
                        (anchor >> k).checked_sub(1)
                    };
                    if laps == Laps::DeepStale && w > 0 {
                        let stale = latest.and_then(|c| c.checked_sub(rng.gen_range(2..=4)));
                        return stale.map_or(Cell::EMPTY, |cycle| Cell {
                            flow: random_flow(rng),
                            cycle,
                        });
                    }
                    let cycle = match rng.gen_range(0..40) {
                        0 => Some(rng.gen_range(0..=u64::MAX)),
                        1 => Some(u64::MAX >> k),
                        2 => Some(u64::MAX >> (u32::from(k) + config.shift(w))),
                        3 => latest.map(|c| c + 1),
                        4..=9 => latest.and_then(|c| c.checked_sub(rng.gen_range(1..=3))),
                        _ => latest,
                    };
                    cycle.map_or(Cell::EMPTY, |cycle| Cell {
                        flow: random_flow(rng),
                        cycle,
                    })
                })
                .collect()
        })
        .collect();
    TimeWindowSnapshot::from_parts(config, windows, false)
}

/// Intervals around `t0` (an instant near the data) that land on the read
/// set's edges in some window.
fn random_interval(rng: &mut SmallRng, config: &TimeWindowConfig, t0: Nanos) -> QueryInterval {
    let w = rng.gen_range(0..config.t);
    let (shift, k) = (config.shift(w), u32::from(config.k));
    let (cp, wp, set) = (
        config.cell_period(w),
        config.window_period(w),
        config.set_period(),
    );
    let n = config.cells() as u64;
    let cell = (t0 >> shift) << shift;
    let phase = if rng.gen_bool(0.5) {
        0
    } else {
        rng.gen_range(0..cp)
    };
    let span = |from: Nanos, cells: u64| {
        QueryInterval::new(
            from,
            from.saturating_add(cells.saturating_mul(cp))
                .saturating_sub(1),
        )
    };
    match rng.gen_range(0..8) {
        // Inside one cell.
        0 => {
            let from = cell + rng.gen_range(0..cp);
            let to = from + rng.gen_range(0..=(cell + (cp - 1) - from));
            QueryInterval::new(from, to)
        }
        // About one ring wide.
        1 | 2 => {
            let width =
                [n - 1, n, n + 1, 1, 2, n.saturating_sub(2).max(1), n + 2][rng.gen_range(0..7)];
            span(
                cell.saturating_sub(rng.gen_range(0..=n) * cp) + phase,
                width,
            )
        }
        // Wrapping: starting in the ring's last cells.
        3 => {
            let lap = (t0 >> (shift + k)) << (shift + k);
            let last = lap + (n - 1 - rng.gen_range(0..n.min(3))) * cp;
            span(last + phase, rng.gen_range(1..=n + 1))
        }
        // Across stale laps.
        4 => QueryInterval::new(
            t0.saturating_sub(rng.gen_range(0..=4 * set)),
            t0.saturating_add(rng.gen_range(0..=set)),
        ),
        // Outside the data.
        5 => {
            if rng.gen_bool(0.5) {
                let from = t0.saturating_add(rng.gen_range(wp..=4 * set));
                QueryInterval::new(from, from.saturating_add(rng.gen_range(0..=wp)))
            } else {
                let to = t0.saturating_sub(rng.gen_range(4 * set..=8 * set));
                QueryInterval::new(to.saturating_sub(rng.gen_range(0..=wp)), to)
            }
        }
        // Next to u64::MAX.
        6 => {
            let to = u64::MAX - rng.gen_range(0..=2 * cp);
            QueryInterval::new(to.saturating_sub(rng.gen_range(0..=3 * wp)), to)
        }
        // Everything from somewhere.
        _ => QueryInterval::new(
            if rng.gen_bool(0.5) {
                0
            } else {
                t0.saturating_sub(rng.gen_range(0..=set))
            },
            u64::MAX,
        ),
    }
}

fn assert_bits_eq(expected: &HashMap<FlowId, f64>, got: &HashMap<FlowId, f64>, what: &str) {
    let bits = |m: &HashMap<FlowId, f64>| {
        let mut v: Vec<(FlowId, u64)> = m.iter().map(|(f, n)| (*f, n.to_bits())).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(bits(expected), bits(got), "{what}");
}

/// How one window of one query meets the ring, by the read set's own
/// arithmetic: nothing in reach, narrower than the ring (in one run or
/// wrapping), or at least as wide. And how often the query's shortcuts
/// apply: a wide window holding cells whose cycle bound is below the
/// range's first cycle (`skipped`), and a window with a cell in range
/// behind shallower windows that had some (`merged`: coverage is built
/// and looked up).
#[derive(Default, Debug)]
struct Reach {
    none: u64,
    one_run: u64,
    wrapped: u64,
    wide: u64,
    skipped: u64,
    merged: u64,
}

impl Reach {
    fn tally(&mut self, snap: &TimeWindowSnapshot, interval: QueryInterval) {
        let config = snap.config();
        let k = config.k;
        let q_end = interval.to.saturating_add(1);
        let mut shallower_in_range = false;
        for w in 0..config.t {
            let shift = config.shift(w);
            let lo = interval.from >> shift;
            let hi = ((q_end - 1) >> shift).min((u64::MAX >> shift) - 1);
            if q_end <= interval.from || hi < lo {
                self.none += 1;
                continue;
            }
            let wide = hi - lo + 1 >= config.cells() as u64;
            if wide {
                self.wide += 1;
            } else if lo >> k == hi >> k {
                self.one_run += 1;
            } else {
                self.wrapped += 1;
            }
            if wide && snap.occupancy(w) > 0 && snap.cycle_bound(w) < lo >> k {
                self.skipped += 1;
                continue;
            }
            let in_range = snap.window(w).iter().enumerate().any(|(index, cell)| {
                !cell.is_empty()
                    && cell
                        .cycle
                        .checked_mul(1 << k)
                        .is_some_and(|c| (lo..=hi).contains(&(c | index as u64)))
            });
            self.merged += u64::from(in_range && shallower_in_range);
            shallower_in_range |= in_range;
        }
    }
}

/// The largest cycle of window `w`'s occupied cells, 0 when it has none.
fn newest_cycle(snap: &TimeWindowSnapshot, w: u8) -> u64 {
    snap.window(w)
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| c.cycle)
        .max()
        .unwrap_or(0)
}

/// A fresh snapshot's cycle bounds are exact.
fn assert_exact_bounds(snap: &TimeWindowSnapshot, what: &str) {
    for w in 0..snap.config().t {
        assert_eq!(
            snap.cycle_bound(w),
            newest_cycle(snap, w),
            "window {w}, {what}"
        );
    }
}

/// The slices the live walk hands each periodic checkpoint.
fn slices(
    checkpoints: &[Checkpoint],
    interval: QueryInterval,
) -> Vec<(&TimeWindowSnapshot, QueryInterval)> {
    let mut prev: Option<Nanos> = None;
    let mut out = Vec::new();
    for cp in checkpoints.iter().filter(|cp| !cp.on_demand) {
        let from = interval.from.max(prev.map_or(0, |t| t.saturating_add(1)));
        let to = interval.to.min(cp.frozen_at);
        prev = Some(cp.frozen_at);
        if from <= to {
            out.push((&cp.windows, QueryInterval::new(from, to)));
        }
    }
    out
}

#[test]
fn snapshot_query_matches_the_reference_model() {
    let (mut reach, mut answered, mut near_max) = (Reach::default(), 0u64, 0u64);
    for seed in 0..2_400u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let config = random_config(&mut rng);
        let coeffs = random_coeffs(&mut rng, &config);
        let base = random_base(&mut rng, &config);
        let (snap, latest) = if seed % 3 == 0 {
            (written_snapshot(&mut rng, config, base, Laps::Mixed), base)
        } else {
            driven_snapshot(&mut rng, config, base)
        };
        assert_exact_bounds(&snap, &format!("seed {seed}"));
        for _ in 0..12 {
            let t0 = latest.saturating_sub(rng.gen_range(0..=config.set_period()));
            let interval = random_interval(&mut rng, &config, t0);
            let expected = reference::query(&snap, interval, &coeffs);
            let got = snap.query(interval, &coeffs);
            assert_bits_eq(
                &expected,
                &got.counts,
                &format!("seed {seed} {config:?} {interval:?}"),
            );
            reach.tally(&snap, interval);
            answered += u64::from(!expected.is_empty());
            near_max += u64::from(!expected.is_empty() && interval.to > u64::MAX / 2);
        }
    }
    // The cases must reach every shape of read set and both shortcuts,
    // and answer.
    assert!(reach.one_run > 12_000, "{reach:?}");
    assert!(reach.wrapped > 3_000, "{reach:?}");
    assert!(reach.wide > 15_000, "{reach:?}");
    assert!(reach.none > 500, "{reach:?}");
    assert!(reach.skipped > 2_500, "{reach:?}");
    assert!(reach.merged > 4_000, "{reach:?}");
    assert!(answered > 7_000, "only {answered} answers had flows");
    assert!(near_max > 3_000, "only {near_max} answers near u64::MAX");
}

/// A snapshot whose shallow window holds every other cell of the latest
/// lap — `n / 2` disjoint spans — over deeper windows full of the latest
/// lap, so every deep cell is tested against hundreds of pending spans.
fn striped_snapshot(
    rng: &mut SmallRng,
    config: TimeWindowConfig,
    base: Nanos,
) -> TimeWindowSnapshot {
    let (k, n) = (config.k, config.cells());
    let windows = (0..config.t)
        .map(|w| {
            let anchor = base >> config.shift(w);
            (0..n)
                .map(|index| {
                    let cycle = if index as u64 <= anchor & (n as u64 - 1) {
                        Some(anchor >> k)
                    } else {
                        (anchor >> k).checked_sub(1)
                    };
                    match cycle {
                        Some(cycle) if w > 0 || index % 2 == 0 => Cell {
                            flow: random_flow(rng),
                            cycle,
                        },
                        _ => Cell::EMPTY,
                    }
                })
                .collect()
        })
        .collect();
    TimeWindowSnapshot::from_parts(config, windows, false)
}

/// The shortcuts on purpose: deep windows of stale cells, deep windows
/// behind hundreds of disjoint shallow spans, `u64::MAX` cycles, and each
/// snapshot queried again after `clone()` and after `filter()`.
#[test]
fn shortcuts_match_the_reference_model() {
    let mut reach = Reach::default();
    for seed in 0..900u64 {
        let mut rng = SmallRng::seed_from_u64((2 << 32) | seed);
        let config = match seed % 3 {
            1 => TimeWindowConfig::new(rng.gen_range(0..=3), 1, rng.gen_range(8..=10), 2),
            _ => random_config(&mut rng),
        };
        let coeffs = random_coeffs(&mut rng, &config);
        let base = random_base(&mut rng, &config);
        let mut snap = match seed % 3 {
            0 => written_snapshot(&mut rng, config, base, Laps::DeepStale),
            1 => striped_snapshot(&mut rng, config, base),
            _ => {
                let mixed = written_snapshot(&mut rng, config, base, Laps::Mixed);
                let mut windows: Vec<Vec<Cell>> =
                    (0..config.t).map(|w| mixed.window(w).to_vec()).collect();
                for cells in &mut windows {
                    let index = rng.gen_range(0..cells.len());
                    cells[index] = Cell {
                        flow: random_flow(&mut rng),
                        cycle: u64::MAX,
                    };
                }
                TimeWindowSnapshot::from_parts(config, windows, false)
            }
        };
        let what = format!("seed {seed} {config:?}");
        assert_exact_bounds(&snap, &what);
        if seed % 3 == 2 {
            for w in 0..config.t {
                assert_eq!(snap.cycle_bound(w), u64::MAX, "{what}");
            }
        }
        let mut check = |snap: &TimeWindowSnapshot, rng: &mut SmallRng, stage: &str| {
            for _ in 0..6 {
                // Back from near `base` by up to two deepest window periods,
                // so most windows are wide.
                let to = base.saturating_sub(rng.gen_range(0..=config.cell_period(0) * 4));
                let back = rng.gen_range(0..=2 * config.window_period(config.t - 1));
                let interval = if rng.gen_bool(0.75) {
                    QueryInterval::new(to.saturating_sub(back), to)
                } else {
                    random_interval(rng, &config, to)
                };
                let expected = reference::query(snap, interval, &coeffs);
                let got = snap.query(interval, &coeffs);
                assert_bits_eq(
                    &expected,
                    &got.counts,
                    &format!("{stage}, {what} {interval:?}"),
                );
                reach.tally(snap, interval);
            }
        };
        check(&snap, &mut rng, "fresh");
        let copy = snap.clone();
        check(&copy, &mut rng, "clone");
        snap.filter();
        for w in 0..config.t {
            assert!(snap.cycle_bound(w) >= newest_cycle(&snap, w), "{what}");
        }
        check(&snap, &mut rng, "filtered");
        check(&copy, &mut rng, "clone of unfiltered");
    }
    assert!(reach.skipped > 1_500, "{reach:?}");
    assert!(reach.merged > 8_000, "{reach:?}");
    assert!(reach.wide > 15_000, "{reach:?}");
}

/// How a seeded program is polled and driven.
#[derive(Clone, Copy, PartialEq)]
enum Polling {
    /// Any period up to the set period; up to 200 dequeues, with lulls.
    Random,
    /// At least the deepest window period, so every whole poll's slice is
    /// wider than every ring; a hundred or so dequeues a poll over eight
    /// polls, and intervals spanning several polls.
    Dense,
}

/// Drive one seeded program per seed, spilling to a `.pqa`, and compare
/// 16 answers each — live and `.pqa` — with the reference walk,
/// tallying every slice. Returns how many answers had flows.
fn check_programs(polling: Polling, seeds: std::ops::Range<u64>, reach: &mut Reach) -> u64 {
    let mut answered = 0u64;
    for seed in seeds {
        let mut rng = SmallRng::seed_from_u64(seed);
        let config = random_config(&mut rng);
        let set = config.set_period();
        let poll_period = match polling {
            Polling::Random => rng.gen_range(1..=set),
            Polling::Dense => rng.gen_range(config.window_period(config.t - 1).min(set)..=set),
        };
        let mut ap = AnalysisProgram::new(&PrintQueueConfig {
            control: ControlConfig {
                poll_period,
                max_snapshots: 100_000,
            },
            qm_entries: 8,
            ..PrintQueueConfig::single_port(config, 1)
        });
        let policy = SegmentPolicy {
            checkpoints_per_segment: rng.gen_range(1..=6),
            max_segment_bytes: 1 << 20,
            retain_segments_per_port: None,
        };
        let writer = SharedStoreWriter::new(StoreWriter::new(Vec::new(), config, policy).unwrap());
        ap.set_spill(Box::new(writer.clone()));
        let start = rng.gen_range(0..=1u64 << 40);
        let mut t = start;
        let (dequeues, lull_odds, dense_gap) = match polling {
            Polling::Random => (rng.gen_range(1..=200), 20, 2 * config.cell_period(0)),
            Polling::Dense => (u64::MAX, 500, (poll_period / 100).max(1)),
        };
        for _ in 0..dequeues {
            if polling == Polling::Dense && t >= start + 8 * poll_period {
                break;
            }
            t += match rng.gen_range(0..lull_odds) {
                0 => rng.gen_range(0..=3 * set), // a lull: a coverage gap
                _ => rng.gen_range(0..=dense_gap),
            };
            ap.on_tick(t);
            ap.record_dequeue(0, random_flow(&mut rng), t);
            if rng.gen_ratio(1, 25) {
                let from = t.saturating_sub(rng.gen_range(0..=set));
                ap.dp_query(0, QueryInterval::new(from, t), t);
            }
        }
        ap.on_tick(t + poll_period);
        writer.with(|w| w.set_health(0, ap.health())).unwrap();
        let mut reader = StoreReader::open(Cursor::new(writer.finish().unwrap())).unwrap();
        let coeffs = ap.coefficients().clone();
        for _ in 0..16 {
            let t0 = rng.gen_range(start..=t);
            let interval = if polling == Polling::Dense && rng.gen_bool(0.5) {
                let polls = rng.gen_range(1..=6) * poll_period + rng.gen_range(0..poll_period);
                QueryInterval::new(t0.saturating_sub(polls), t0)
            } else {
                random_interval(&mut rng, &config, t0)
            };
            let expected = reference::query_slices(ap.checkpoints(0), interval, &coeffs);
            let what = format!("seed {seed} {config:?} poll {poll_period} {interval:?}");
            let live = ap.query_time_windows(0, interval);
            assert_bits_eq(&expected, &live.estimates.counts, &format!("live, {what}"));
            let stored = reader.query(0, interval, &coeffs).unwrap();
            assert_bits_eq(&expected, &stored.estimates.counts, &format!("pqa, {what}"));
            assert_eq!(live.gaps, stored.gaps, "{what}");
            assert_eq!(live.degraded, stored.degraded, "{what}");
            for (snap, slice) in slices(ap.checkpoints(0), interval) {
                reach.tally(snap, slice);
            }
            answered += u64::from(!expected.is_empty());
        }
    }
    answered
}

#[test]
fn whole_answers_match_the_reference_walk() {
    let mut reach = Reach::default();
    let answered = check_programs(Polling::Random, (1 << 32)..(1 << 32) + 400, &mut reach);
    assert!(answered > 1_500, "only {answered} answers had flows");
}

#[test]
fn densely_polled_answers_match_the_reference_walk() {
    let mut reach = Reach::default();
    let answered = check_programs(Polling::Dense, (3 << 32)..(3 << 32) + 200, &mut reach);
    assert!(answered > 1_500, "only {answered} answers had flows");
    assert!(
        reach.wide > 3 * (reach.one_run + reach.wrapped),
        "{reach:?}"
    );
    assert!(reach.skipped > 500, "{reach:?}");
    assert!(reach.merged > 3_000, "{reach:?}");
}

/// A `.pqa` cell whose cycle puts its span past `u64` nanoseconds — raw
/// TTS `u64::MAX`, where the old query's `raw + 1` overflowed — decodes
/// (the codec takes any cycle) and must simply not count, through the
/// reader and through the per-window query.
#[test]
fn a_cell_past_u64_nanoseconds_never_counts() {
    let config = TimeWindowConfig::new(2, 1, 3, 2);
    let n = config.cells();
    let mut windows = vec![vec![Cell::EMPTY; n]; 2];
    windows[0][0] = Cell {
        flow: FlowId(2),
        cycle: 5,
    };
    windows[0][n - 1] = Cell {
        flow: FlowId(1),
        cycle: u64::MAX >> config.k,
    };
    // Its span ends at exactly 2^64.
    windows[1][n - 1] = Cell {
        flow: FlowId(3),
        cycle: u64::MAX >> (u32::from(config.k) + config.shift(1)),
    };
    let cp = Checkpoint {
        frozen_at: u64::MAX,
        on_demand: false,
        trigger: None,
        windows: TimeWindowSnapshot::from_parts(config, windows, false),
        queue_monitors: Vec::new(),
    };
    let mut writer = StoreWriter::new(Vec::new(), config, SegmentPolicy::default()).unwrap();
    writer.push(0, &cp).unwrap();
    let mut reader = StoreReader::open(Cursor::new(writer.finish().unwrap())).unwrap();
    let coeffs = Coefficients::compute(&config, 1);
    let flows = |counts: &HashMap<FlowId, f64>| {
        let mut v: Vec<FlowId> = counts.keys().copied().collect();
        v.sort_unstable();
        v
    };
    let everything = QueryInterval::new(0, u64::MAX);
    let answer = reader.query(0, everything, &coeffs).unwrap();
    assert_eq!(flows(&answer.estimates.counts), [FlowId(2)]);
    let top = QueryInterval::new(u64::MAX - 4 * config.set_period(), u64::MAX);
    assert!(reader
        .query(0, top, &coeffs)
        .unwrap()
        .estimates
        .counts
        .is_empty());

    let mut snap = reader.read_port(0).unwrap().checkpoints[0].windows.clone();
    assert_eq!(snap.window(0)[n - 1].cycle, u64::MAX >> config.k);
    for w in 0..config.t {
        let est = snap.query_window(w, everything, &coeffs);
        assert!(flows(&est.counts).is_empty(), "window {w}: {est:?}");
    }
}
