//! The threaded spill path: `SharedStoreWriter` hands every checkpoint and
//! gap to its `pq-store-writer` thread, and the file must be what a
//! `StoreWriter` fed inline writes, byte for byte. Errors the thread meets
//! come back to the analysis program (`spill_errors`, the `spill-errors`
//! alert rule) or from `finish`; `with` sees every earlier hand-off; and a
//! writer dropped without `finish` lets its thread go.
//!
//! Every test builds its writers one after another: none keeps more than
//! two writer threads alive at once.

use pq_core::control::{AnalysisProgram, Checkpoint, CheckpointSink, CoverageGap};
use pq_core::metrics::ControlHealth;
use pq_core::params::TimeWindowConfig;
use pq_core::printqueue::PrintQueueConfig;
use pq_core::queue_monitor::{Entry, Half, QueueMonitorSnapshot};
use pq_core::snapshot::TimeWindowSnapshot;
use pq_core::time_windows::Cell;
use pq_packet::FlowId;
use pq_store::{SegmentPolicy, SharedStoreWriter, StoreWriter};
use pq_telemetry::alerts::{parse_rules, AlertEngine};
use pq_telemetry::{names, Telemetry};
use proptest::prelude::*;
use std::io::{self, Write};
use std::sync::mpsc;
use std::time::Duration;

const TW: TimeWindowConfig = TimeWindowConfig {
    m0: 4,
    alpha: 2,
    k: 4,
    t: 2,
};

/// A periodic checkpoint whose one window cell and `rows` monitor rows
/// depend on `salt`.
fn checkpoint(frozen_at: u64, rows: usize, salt: u32) -> Checkpoint {
    let mut windows = vec![vec![Cell::EMPTY; TW.cells()]; usize::from(TW.t)];
    windows[usize::from(salt.is_multiple_of(2))][salt as usize % TW.cells()] = Cell {
        flow: FlowId(salt),
        cycle: u64::from(salt % 5),
    };
    let mut entries = vec![Entry::default(); 256];
    for (i, e) in entries.iter_mut().take(rows).enumerate() {
        e.inc = Half {
            flow: FlowId((i as u32 + salt) % 7),
            seq: frozen_at.wrapping_add(i as u64),
        };
    }
    Checkpoint {
        frozen_at,
        on_demand: false,
        trigger: None,
        windows: TimeWindowSnapshot::from_parts(TW, windows, false),
        queue_monitors: vec![QueueMonitorSnapshot::from_dense(&entries, 0)],
    }
}

fn policy() -> SegmentPolicy {
    SegmentPolicy {
        checkpoints_per_segment: 3,
        ..SegmentPolicy::default()
    }
}

/// One step of a spill, as the analysis program and its caller issue them.
#[derive(Debug, Clone)]
enum Op {
    /// A checkpoint with fresh windows and `rows` monitor rows.
    Fresh {
        port: u16,
        rows: usize,
        salt: u32,
    },
    /// The port's previous checkpoint again at a later time, sharing its
    /// windows and monitor chunks (an idle port's freeze).
    Repeat {
        port: u16,
    },
    Gap {
        port: u16,
    },
    Health {
        port: u16,
        polls: u64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..9, 0u16..2, 0usize..40, 0u32..1000).prop_map(|(kind, port, rows, salt)| match kind {
        0..=3 => Op::Fresh { port, rows, salt },
        4..=6 => Op::Repeat { port },
        7 => Op::Gap { port },
        _ => Op::Health {
            port,
            polls: u64::from(salt),
        },
    })
}

/// Where each op goes: a direct `StoreWriter` or the threaded handle.
trait Spill {
    fn checkpoint(&mut self, port: u16, cp: &Checkpoint);
    fn gap(&mut self, port: u16, gap: CoverageGap);
    fn health(&mut self, port: u16, health: ControlHealth);
}

impl Spill for StoreWriter<Vec<u8>> {
    fn checkpoint(&mut self, port: u16, cp: &Checkpoint) {
        self.push(port, cp).unwrap();
    }
    fn gap(&mut self, port: u16, gap: CoverageGap) {
        self.push_gap(port, gap);
    }
    fn health(&mut self, port: u16, health: ControlHealth) {
        self.set_health(port, health);
    }
}

/// The sink handle the program holds, and the caller's handle.
struct Threaded {
    sink: SharedStoreWriter<Vec<u8>>,
    caller: SharedStoreWriter<Vec<u8>>,
}

impl Spill for Threaded {
    fn checkpoint(&mut self, port: u16, cp: &Checkpoint) {
        self.sink.on_checkpoint(port, cp).unwrap();
    }
    fn gap(&mut self, port: u16, gap: CoverageGap) {
        self.sink.on_gap(port, gap).unwrap();
    }
    fn health(&mut self, port: u16, health: ControlHealth) {
        self.caller.with(|w| w.set_health(port, health)).unwrap();
    }
}

/// Run `ops` into `spill`, each port's freeze times strictly increasing.
fn replay(ops: &[Op], spill: &mut impl Spill) {
    let mut last: [Option<Checkpoint>; 2] = [None, None];
    for (i, op) in ops.iter().enumerate() {
        let t = 1_000 + 100 * i as u64;
        match *op {
            Op::Fresh { port, rows, salt } => {
                let cp = checkpoint(t, rows, salt);
                spill.checkpoint(port, &cp);
                last[usize::from(port)] = Some(cp);
            }
            Op::Repeat { port } => {
                let prev = last[usize::from(port)].as_ref();
                let cp = prev.map_or_else(
                    || checkpoint(t, 1, 0),
                    |prev| Checkpoint {
                        frozen_at: t,
                        ..prev.clone()
                    },
                );
                spill.checkpoint(port, &cp);
                last[usize::from(port)] = Some(cp);
            }
            Op::Gap { port } => spill.gap(
                port,
                CoverageGap {
                    from: t - 50,
                    to: t,
                },
            ),
            Op::Health { port, polls } => spill.health(
                port,
                ControlHealth {
                    polls_attempted: polls,
                    ..ControlHealth::default()
                },
            ),
        }
    }
}

proptest! {
    /// Any interleaving of checkpoints, gaps, two ports and health
    /// updates: the threaded writer's file equals the inline writer's.
    #[test]
    fn threaded_spill_writes_the_inline_bytes(ops in prop::collection::vec(op(), 0..60)) {
        let mut direct = StoreWriter::new(Vec::new(), TW, policy()).unwrap();
        replay(&ops, &mut direct);
        let inline = direct.finish().unwrap();

        let caller = SharedStoreWriter::new(StoreWriter::new(Vec::new(), TW, policy()).unwrap());
        let mut threaded = Threaded { sink: caller.clone(), caller };
        replay(&ops, &mut threaded);
        let spilled = threaded.caller.finish().unwrap();
        prop_assert!(inline == spilled, "{} vs {} bytes", inline.len(), spilled.len());
    }
}

/// A sink that accepts `limit` bytes, then fails every write.
#[derive(Debug)]
struct FailsAfter {
    written: usize,
    limit: usize,
}

impl Write for FailsAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let room = self.limit - self.written;
        if room == 0 {
            return Err(io::Error::other("disk full"));
        }
        let n = buf.len().min(room);
        self.written += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An analysis program spilling into a sink that fails after `limit`
/// bytes, polled `polls` times; the caller's handle comes back unfinished.
/// Each poll waits for the writer thread, so a seal's error is handed back
/// by the very next checkpoint.
fn failing_spill(limit: usize, polls: u64) -> (AnalysisProgram, SharedStoreWriter<FailsAfter>) {
    let sink = FailsAfter { written: 0, limit };
    let handle = SharedStoreWriter::new(StoreWriter::new(sink, TW, policy()).unwrap());
    let mut ap = AnalysisProgram::new(&PrintQueueConfig::single_port(TW, 1));
    ap.set_spill(Box::new(handle.clone()));
    let t_set = TW.set_period();
    for poll in 1..=polls {
        ap.record_dequeue(0, FlowId(poll as u32 % 5), poll * t_set - 1);
        ap.on_tick(poll * t_set);
        handle.with(|_| ()).unwrap();
    }
    (ap, handle)
}

#[test]
fn a_failing_sink_counts_spill_errors_and_fails_finish() {
    // The header fits; the first segment's seal does not.
    let (ap, handle) = failing_spill(64, 40);
    let health = ap.health();
    assert_eq!(health.checkpoints_stored, 40);
    // Thirteen seals (after checkpoints 3, 6, …, 39) fail, each handed back
    // by the checkpoint after it; the fortieth is still open.
    assert_eq!(health.spill_errors, 13, "{health:?}");
    let err = handle.finish().expect_err("the trailer cannot be written");
    assert_eq!(err.to_string(), "disk full");
    assert!(handle.finish().is_err(), "finished once");
}

#[test]
fn spill_errors_fire_the_ci_rule() {
    let rules = parse_rules(include_str!("../../../ci-rules.toml")).unwrap();
    assert!(rules.iter().any(|r| r.name == "spill-errors"));
    let fired = |ap: &AnalysisProgram| {
        let mut engine = AlertEngine::new(rules.clone());
        engine.evaluate(1, &ap.telemetry().registry().snapshot());
        engine.firing()
    };
    // Seeded: the byte the sink fails at varies with the seed, the outcome
    // must not.
    for seed in 1..=3u64 {
        let limit = 64 + (seed.wrapping_mul(0x9E37_79B9) % 512) as usize;
        let (ap, handle) = failing_spill(limit, 24);
        assert!(
            fired(&ap).contains(&"spill-errors".to_string()),
            "seed {seed}: {:?}",
            fired(&ap)
        );
        drop(handle);
    }
    // A healthy spill leaves the rule quiet.
    let (ap, handle) = failing_spill(usize::MAX, 24);
    handle.finish().unwrap();
    assert_eq!(ap.health().spill_errors, 0);
    assert!(!fired(&ap).contains(&"spill-errors".to_string()));
}

/// A sink that reports its own drop.
struct Tells(mpsc::Sender<()>);

impl Write for Tells {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for Tells {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

#[test]
fn dropping_every_handle_ends_the_writer_thread() {
    let (tx, dropped) = mpsc::channel();
    let handle = SharedStoreWriter::new(StoreWriter::new(Tells(tx), TW, policy()).unwrap());
    let mut sink = handle.clone();
    for i in 0..10 {
        sink.on_checkpoint(0, &checkpoint(1_000 + 100 * i, 8, i as u32))
            .unwrap();
    }
    drop(handle);
    assert!(dropped.try_recv().is_err(), "one handle is still alive");
    drop(sink);
    // The last handle's drop ran the queue and joined the thread, which
    // dropped the writer and its sink.
    dropped
        .recv_timeout(Duration::from_secs(10))
        .expect("the writer's sink was dropped");
}

#[test]
fn with_sees_every_earlier_push() {
    let handle = SharedStoreWriter::new(StoreWriter::new(Vec::new(), TW, policy()).unwrap());
    let plane = Telemetry::new();
    handle.with(|w| w.set_telemetry(&plane)).unwrap();
    let mut sink = handle.clone();
    for i in 0..30u64 {
        sink.on_checkpoint(0, &checkpoint(1_000 + 100 * i, 20, i as u32))
            .unwrap();
        let pushed = i as usize + 1;
        let sealed = handle.with(|w| w.sealed_segments()).unwrap();
        assert_eq!(sealed, pushed / 3, "after push {pushed}");
    }
    let written = plane
        .registry()
        .snapshot()
        .counter(names::STORE_CHECKPOINTS_WRITTEN, &[]);
    assert_eq!(written, Some(30));
    handle.finish().unwrap();
    assert!(handle.with(|w| w.sealed_segments()).is_err());
    assert!(sink.on_checkpoint(0, &checkpoint(9_000, 1, 0)).is_err());
}
