//! The control-plane analysis program (§6 of the paper).
//!
//! Three responsibilities: (1) per-port configuration, (2) checkpointing the
//! time windows and queue monitor by periodically 'freezing' register sets,
//! and (3) executing queries against the stored snapshots.
//!
//! Register freezing follows Figure 8 / Mantis: a flip of the
//! second-highest index bit diverts per-packet updates to a spare register
//! copy *for the duration of the read*, giving the control plane an atomic,
//! serializable snapshot; a data-plane-triggered query flips the highest
//! bit instead, and the frozen 'special' set stays locked (further triggers
//! are ignored) until read. Crucially, the read lasts milliseconds while
//! `t_set` spans tens of milliseconds, so one primary copy receives
//! (essentially) every packet and its ring buffers roll continuously —
//! that continuity is what keeps the deep windows populated.
//!
//! By default control-plane reads complete in zero simulated time, so the
//! flip diverts zero packets: reading reduces to an atomic bulk copy of the
//! live registers, and the spare copies exist only in the SRAM and
//! bandwidth accounting ([`crate::resources`]). The special-set lock is
//! still modeled (a data-plane query arriving while one is outstanding is
//! dropped, §6.2), as is the paper's constraint that polls happen at least
//! once per set period.
//!
//! A [`FaultInjector`] (see [`crate::faults`]) lifts the perfect-substrate
//! assumption: reads can fail, stall, and take real time — during which the
//! spare copy stays occupied, so a second poll is queued behind it and a
//! second trigger is rejected per the special-set-lock semantics — and
//! completed checkpoints can be lost before storage. Failed reads retry
//! with capped exponential backoff and jitter. Whenever the gap between
//! stored periodic checkpoints exceeds `t_set`, the rings have wrapped and
//! history is unrecoverable; the store records a [`CoverageGap`] and
//! queries overlapping it come back flagged degraded instead of silently
//! blending stale state. With no injector configured every code path
//! reduces exactly to the original synchronous, infallible behavior.
//!
//! The snapshot store also enforces the paper's feasibility constraint: a
//! configurable read-rate ceiling models PCIe/analysis-program throughput
//! (Figure 13's "data exchange limit"); reads that would exceed it are
//! reported so experiments can mark infeasible configurations.

use crate::coefficient::Coefficients;
use crate::faults::{FaultInjector, RetryPolicy};
use crate::metrics::{ControlCounters, ControlHealth};
use crate::params::TimeWindowConfig;
use crate::printqueue::PrintQueueConfig;
use crate::queue_monitor::{QueueMonitor, QueueMonitorSnapshot};
use crate::snapshot::{FlowEstimates, QueryInterval, TimeWindowSnapshot};
use crate::time_windows::TimeWindowSet;
use pq_packet::{FlowId, Nanos};
use pq_telemetry::{names, Telemetry};
use serde::Serialize;
use std::ops::Deref;
use std::time::Instant;

/// Bound on stored coverage gaps per port (a safety valve for pathological
/// runs; at one gap per missed set period this covers hours of simulated
/// outage before the oldest records rotate out).
const MAX_STORED_GAPS: usize = 4096;

/// Control-plane configuration.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ControlConfig {
    /// Poll period. Must be ≤ the set period or coverage gaps appear
    /// (§6.2: "at least once per t_set"). Defaults to the set period.
    pub poll_period: Nanos,
    /// Maximum number of stored snapshots (a ring of recent history).
    pub max_snapshots: usize,
}

impl ControlConfig {
    /// Poll exactly once per set period, keeping `max_snapshots` snapshots.
    pub fn per_set_period(tw: &TimeWindowConfig, max_snapshots: usize) -> ControlConfig {
        ControlConfig {
            poll_period: tw.set_period(),
            max_snapshots,
        }
    }
}

/// A span of time over which the periodic-checkpoint chain lost coverage:
/// more than `t_set` passed after `from` without a stored checkpoint, so
/// ring history between the endpoints may have been overwritten unread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CoverageGap {
    /// The last successfully stored periodic checkpoint before the gap.
    pub from: Nanos,
    /// The checkpoint (or query horizon) that closed the gap.
    pub to: Nanos,
}

impl CoverageGap {
    /// Gap length in nanoseconds.
    pub fn len(&self) -> Nanos {
        self.to.saturating_sub(self.from)
    }

    /// True for a degenerate (zero-length) gap.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does this gap overlap the closed query interval?
    pub fn overlaps(&self, interval: QueryInterval) -> bool {
        self.from <= interval.to && self.to >= interval.from
    }

    /// Does `at` fall inside the gap?
    pub fn contains(&self, at: Nanos) -> bool {
        self.from <= at && at <= self.to
    }
}

/// A time-window query answer annotated with control-plane coverage.
///
/// Dereferences to its [`FlowEstimates`], so call sites that only care
/// about counts keep working unchanged; resilience-aware callers inspect
/// [`QueryResult::degraded`] and [`QueryResult::gaps`].
#[derive(Debug, Clone, Serialize)]
pub struct QueryResult {
    /// Per-flow estimated packet counts over the interval.
    pub estimates: FlowEstimates,
    /// Coverage gaps overlapping the query interval.
    pub gaps: Vec<CoverageGap>,
    /// True when any part of the interval fell in a coverage gap: the
    /// estimates may silently miss traffic and should be treated as a
    /// lower-confidence answer.
    pub degraded: bool,
}

impl QueryResult {
    /// Close a §6.3 answer over `interval`: `gaps` (the recorded gaps that
    /// overlap it) plus the open-ended gap when the interval reaches more
    /// than `t_set` past `last_periodic`, the newest stored periodic
    /// checkpoint — territory no future poll can recover, such as an
    /// outage still in progress. With no checkpoint nothing is covered
    /// since t = 0. Live and `.pqa` answers both close here.
    pub fn covering(
        estimates: FlowEstimates,
        mut gaps: Vec<CoverageGap>,
        interval: QueryInterval,
        last_periodic: Option<Nanos>,
        t_set: Nanos,
    ) -> QueryResult {
        let last = last_periodic.unwrap_or(0);
        if interval.to > last.saturating_add(t_set) {
            gaps.push(CoverageGap {
                from: last,
                to: interval.to,
            });
        }
        QueryResult {
            degraded: !gaps.is_empty(),
            estimates,
            gaps,
        }
    }
}

impl Deref for QueryResult {
    type Target = FlowEstimates;

    fn deref(&self) -> &FlowEstimates {
        &self.estimates
    }
}

/// A queue-monitor query answer annotated with freshness and coverage.
///
/// Dereferences to the underlying [`QueueMonitorSnapshot`].
#[derive(Debug, Clone)]
pub struct QueueMonitorAnswer<'a> {
    /// The stored snapshot closest to the requested instant.
    pub snapshot: &'a QueueMonitorSnapshot,
    /// When that snapshot was frozen.
    pub frozen_at: Nanos,
    /// Distance between the requested instant and the freeze.
    pub staleness: Nanos,
    /// Coverage gaps containing the requested instant.
    pub gaps: Vec<CoverageGap>,
    /// True when the requested instant fell in a coverage gap or the
    /// nearest snapshot is more than `t_set` away.
    pub degraded: bool,
}

impl Deref for QueueMonitorAnswer<'_> {
    type Target = QueueMonitorSnapshot;

    fn deref(&self) -> &QueueMonitorSnapshot {
        self.snapshot
    }
}

/// A stored checkpoint of one port's data-plane state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// When the freeze happened.
    pub frozen_at: Nanos,
    /// Whether this came from a data-plane trigger (special registers) or a
    /// periodic poll.
    pub on_demand: bool,
    /// For on-demand reads: the triggering packet's query interval.
    pub trigger: Option<QueryInterval>,
    /// Frozen time windows (filtered lazily at query time).
    pub windows: TimeWindowSnapshot,
    /// Frozen queue monitors, one per egress queue (FIFO ports have one).
    pub queue_monitors: Vec<QueueMonitorSnapshot>,
}

impl Checkpoint {
    /// The first (or only) queue's monitor snapshot, if any queue was
    /// monitored.
    pub fn queue_monitor(&self) -> Option<&QueueMonitorSnapshot> {
        self.queue_monitors.first()
    }
}

/// The §6.3 slice walk every time-window query takes — live and `.pqa`
/// reader alike: each periodic checkpoint in `checkpoints`
/// (oldest first) answers only its own slice of `interval`, from just
/// after the previous periodic freeze to its own, so polls more frequent
/// than the set period never count a span twice. On-demand checkpoints
/// are skipped. Answers merge into `into` in checkpoint order.
///
/// `prev_periodic` is the periodic freeze before `checkpoints[0]`, if
/// any; the return is the last periodic freeze of the walk (or
/// `prev_periodic`), which seeds the next stretch of the same chain.
pub fn query_slices(
    checkpoints: &[Checkpoint],
    interval: QueryInterval,
    coeffs: &Coefficients,
    mut prev_periodic: Option<Nanos>,
    into: &mut FlowEstimates,
) -> Option<Nanos> {
    for cp in checkpoints.iter().filter(|cp| !cp.on_demand) {
        let from = interval
            .from
            .max(prev_periodic.map_or(0, |t| t.saturating_add(1)));
        let to = interval.to.min(cp.frozen_at);
        prev_periodic = Some(cp.frozen_at);
        if from <= to {
            into.merge(&cp.windows.query(QueryInterval::new(from, to), coeffs));
        }
    }
    prev_periodic
}

/// A destination for completed checkpoints, fed incrementally as the
/// control plane stores them (the spill hook behind `pq-store`'s streaming
/// [`StoreWriter`](https://docs.rs/pq-store)).
///
/// The in-RAM snapshot ring stays bounded at `max_snapshots`; a sink
/// observes *every* stored checkpoint before rotation can evict it, so a
/// long run's full history can live on disk while RAM holds only the
/// recent working set. Sink errors never disrupt the data plane: the
/// analysis program counts them in [`ControlHealth::spill_errors`] and
/// keeps polling.
///
/// Sinks must be `Send + Sync`: an [`AnalysisProgram`] is shared
/// immutably across query-service worker threads (`Arc`), so everything
/// it owns — including an attached sink — has to be thread-safe at the
/// type level even though queries never touch the sink.
pub trait CheckpointSink: Send + Sync {
    /// A checkpoint was stored for `port`.
    fn on_checkpoint(&mut self, port: u16, cp: &Checkpoint) -> std::io::Result<()>;

    /// A coverage gap was recorded for `port`.
    fn on_gap(&mut self, _port: u16, _gap: CoverageGap) -> std::io::Result<()> {
        Ok(())
    }
}

/// One port's stored checkpoints: the newest `max_snapshots`, oldest
/// first, as one slice. Eviction advances `start` past the oldest entry
/// (releasing its register images at once) and the dead prefix is cut off
/// when it outgrows the live part, so a push is amortised O(1) however
/// long the run.
///
/// What eviction lets go is remembered as one gap from t = 0 to the last
/// evicted periodic freeze: the span the evicted checkpoints answered,
/// which no retained checkpoint's windows reach back over in full.
#[derive(Default)]
struct SnapshotRing {
    buf: Vec<Checkpoint>,
    start: usize,
    evicted: Option<CoverageGap>,
}

impl SnapshotRing {
    fn as_slice(&self) -> &[Checkpoint] {
        &self.buf[self.start..]
    }

    /// Store `cp`; true when that evicted the oldest checkpoint.
    fn push(&mut self, cp: Checkpoint, max_snapshots: usize) -> bool {
        self.buf.push(cp);
        let evicting = self.buf.len() - self.start > max_snapshots;
        if evicting {
            let evicted = &mut self.buf[self.start];
            evicted.windows.release();
            evicted.queue_monitors = Vec::new();
            if !evicted.on_demand {
                self.evicted = Some(CoverageGap {
                    from: 0,
                    to: evicted.frozen_at,
                });
            }
            self.start += 1;
        }
        if self.start > self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        evicting
    }
}

/// A failed (or deferred) read waiting to run again.
#[derive(Debug, Clone, Copy)]
struct PendingRead {
    /// Earliest instant the next attempt may run.
    next_attempt_at: Nanos,
    /// How many attempts have already failed (0 = a deferred first try).
    attempt: u32,
    on_demand: bool,
    trigger: Option<QueryInterval>,
}

/// One port's data-plane register state.
///
/// Physically there are three copies (primary, read spare, special — see
/// the module docs); since reads divert zero packets in simulated time,
/// only the primary holds data and the spares appear in the resource
/// accounting alone.
struct PortRegisters {
    time_windows: TimeWindowSet,
    /// One monitor per egress queue — "multiple queues are tracked
    /// individually" (§5). FIFO ports have exactly one.
    queue_monitors: Vec<QueueMonitor>,
    /// A data-plane-triggered special read holds its register set until
    /// this instant; triggers arriving earlier are ignored. With
    /// zero-latency reads this expires immediately, reproducing the
    /// original synchronous-release behavior.
    special_locked_until: Nanos,
    /// A read (periodic or on-demand) occupies the spare copy until this
    /// instant; a periodic poll arriving earlier is queued behind it.
    read_busy_until: Nanos,
    /// A failed or deferred read awaiting its next attempt.
    retry: Option<PendingRead>,
    /// When the last *periodic* checkpoint was stored (for missed-poll
    /// detection; on-demand reads answer a different question and do not
    /// extend coverage of the periodic chain).
    last_checkpoint_at: Option<Nanos>,
    /// Index of the last set-period boundary a dequeue crossed, for
    /// window-rotation span tracing.
    last_rotation: u64,
}

impl PortRegisters {
    fn new(
        tw: &TimeWindowConfig,
        qm_entries: usize,
        qm_cells_per_entry: u32,
        queues: u8,
        passing: bool,
    ) -> PortRegisters {
        let mut time_windows = TimeWindowSet::new(*tw);
        if !passing {
            time_windows = time_windows.without_passing();
        }
        PortRegisters {
            time_windows,
            queue_monitors: (0..queues.max(1))
                .map(|_| QueueMonitor::new(qm_entries, qm_cells_per_entry))
                .collect(),
            special_locked_until: 0,
            read_busy_until: 0,
            retry: None,
            last_checkpoint_at: None,
            last_rotation: 0,
        }
    }

    fn monitor_mut(&mut self, queue: u8) -> &mut QueueMonitor {
        let last = self.queue_monitors.len() - 1;
        &mut self.queue_monitors[usize::from(queue).min(last)]
    }
}

/// The per-switch analysis program plus the data-plane register files it
/// manages. (In hardware these live on opposite sides of PCIe; co-locating
/// them in one type keeps the simulation simple while the access paths stay
/// separate: packets touch only the active copy, the control plane only
/// frozen copies.)
pub struct AnalysisProgram {
    tw_config: TimeWindowConfig,
    control: ControlConfig,
    coeffs: Coefficients,
    ports: Vec<(u16, PortRegisters)>,
    /// Stored checkpoints, oldest first, per port (parallel to `ports`).
    checkpoints: Vec<SnapshotRing>,
    /// Recorded coverage gaps, oldest first, per port (parallel to `ports`).
    gaps: Vec<Vec<CoverageGap>>,
    /// Optional fault injection (`None` = the perfect substrate: reads are
    /// instantaneous and infallible, exactly the original behavior).
    faults: Option<FaultInjector>,
    /// Backoff policy for failed reads.
    retry_policy: RetryPolicy,
    /// Optional spill destination observing every stored checkpoint (the
    /// streaming persistence hook; `None` keeps everything in RAM only).
    spill: Option<Box<dyn CheckpointSink>>,
    /// The telemetry plane every health counter records into. A private
    /// default plane until [`AnalysisProgram::set_telemetry`] attaches a
    /// shared one, so counting never needs a null check.
    telemetry: Telemetry,
    /// Pre-resolved control-plane counter handles into `telemetry`.
    counters: ControlCounters,
    /// Serialises the freeze-and-read critical section. The simulation
    /// is single-threaded today, so this never blocks — it exists as
    /// the *measurement point*: pq-prof publishes its wait/hold times
    /// as `pq_lock_wait_ns{lock="freeze"}` / `pq_lock_hold_ns`, the
    /// before/after evidence the ROADMAP lock-removal refactor (item 2)
    /// names as its success criterion. Poisoning (a reader panicking
    /// mid-freeze) is recovered and surfaced as a [`CoverageGap`], not
    /// propagated — a panicked worker must not wedge the control loop.
    freeze_gate: pq_prof::PqMutex<()>,
    /// Cumulative register entries read by the control plane (for the
    /// bandwidth model).
    pub entries_read: u64,
    /// Cumulative bytes read.
    pub bytes_read: u64,
    /// Data-plane queries ignored because the special set was locked.
    pub dp_queries_ignored: u64,
    last_poll: Nanos,
}

impl AnalysisProgram {
    /// Configure the control plane and register files `config` describes
    /// (§6.1): its ports, time windows, polling, queue monitors (one per
    /// egress queue), passing rule, coefficient boot value (`min_pkt_tx_delay`), and fault
    /// injection with its retry policy. The data-plane trigger is the
    /// [`PrintQueue`](crate::printqueue::PrintQueue) facade's.
    pub fn new(config: &PrintQueueConfig) -> AnalysisProgram {
        let (tw_config, control, ports) = (config.time_windows, config.control, &config.ports);
        assert!(!ports.is_empty(), "activate at least one port");
        assert!(
            control.poll_period <= tw_config.set_period(),
            "poll period {} exceeds set period {} — coverage gap",
            control.poll_period,
            tw_config.set_period()
        );
        let telemetry = Telemetry::new();
        let counters = ControlCounters::resolve(&telemetry);
        AnalysisProgram {
            coeffs: Coefficients::compute(&tw_config, config.min_pkt_tx_delay),
            ports: ports
                .iter()
                .map(|p| {
                    (
                        *p,
                        PortRegisters::new(
                            &tw_config,
                            config.qm_entries,
                            config.qm_cells_per_entry,
                            config.queues_per_port,
                            !config.ablate_passing,
                        ),
                    )
                })
                .collect(),
            checkpoints: ports.iter().map(|_| SnapshotRing::default()).collect(),
            gaps: vec![Vec::new(); ports.len()],
            faults: config.faults.clone().map(FaultInjector::new),
            retry_policy: config.retry,
            spill: None,
            telemetry,
            counters,
            freeze_gate: pq_prof::PqMutex::new("freeze", ()),
            tw_config,
            control,
            entries_read: 0,
            bytes_read: 0,
            dp_queries_ignored: 0,
            last_poll: 0,
        }
    }

    /// The time-window configuration.
    pub fn tw_config(&self) -> &TimeWindowConfig {
        &self.tw_config
    }

    /// The recovery coefficients in use.
    pub fn coefficients(&self) -> &Coefficients {
        &self.coeffs
    }

    /// The installed fault injector, if any.
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// The retry/backoff policy in force.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry_policy
    }

    /// Install a checkpoint spill sink. Every checkpoint stored (and every
    /// coverage gap recorded) from now on is also handed to the sink, so
    /// history survives the in-RAM ring's rotation. Replaces any previous
    /// sink.
    pub fn set_spill(&mut self, sink: Box<dyn CheckpointSink>) {
        self.spill = Some(sink);
    }

    /// Control-plane health counters, read out of the telemetry registry
    /// (the registry is the source of truth; this struct is a view).
    pub fn health(&self) -> ControlHealth {
        self.counters.health()
    }

    /// Attach a shared telemetry plane. All health counters, the
    /// freeze-and-read latency histogram, and (when tracing is enabled)
    /// freeze-and-read / window-rotation spans record into it from now on;
    /// counts accumulated under the previous plane are carried over so
    /// totals never regress.
    pub fn set_telemetry(&mut self, plane: &Telemetry) {
        let counters = ControlCounters::resolve(plane);
        counters.seed(&self.counters, self.entries_read, self.bytes_read);
        self.counters = counters;
        self.telemetry = plane.clone();
    }

    /// The telemetry plane in use (a private default until
    /// [`AnalysisProgram::set_telemetry`] replaces it).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Recorded coverage gaps for `port`, oldest first.
    pub fn coverage_gaps(&self, port: u16) -> &[CoverageGap] {
        let i = self.port_index(port).expect("port not activated");
        &self.gaps[i]
    }

    fn port_index(&self, port: u16) -> Option<usize> {
        self.ports.iter().position(|(p, _)| *p == port)
    }

    /// Is PrintQueue active on `port` (the §6.1 ingress gate table)?
    pub fn is_active(&self, port: u16) -> bool {
        self.port_index(port).is_some()
    }

    /// Every activated port, in activation order.
    pub fn ports(&self) -> Vec<u16> {
        self.ports.iter().map(|(p, _)| *p).collect()
    }

    /// Data-plane update: a packet of `flow` dequeued from `port` at
    /// `deq_ts`. Feeds the primary time-window copy.
    pub fn record_dequeue(&mut self, port: u16, flow: FlowId, deq_ts: Nanos) {
        if let Some(i) = self.port_index(port) {
            self.record_dequeue_at(i, flow, deq_ts);
        }
    }

    fn record_dequeue_at(&mut self, i: usize, flow: FlowId, deq_ts: Nanos) {
        let (port, regs) = &mut self.ports[i];
        regs.time_windows.record(flow, deq_ts);
        if self.telemetry.tracing_enabled() {
            // One span per completed set period: the rings rotate every
            // t_set, and a dequeue past the next boundary closes the
            // previous rotation.
            let t_set = self.tw_config.set_period();
            let boundary = deq_ts / t_set;
            if boundary > regs.last_rotation {
                self.telemetry.spans().record(
                    names::SPAN_WINDOW_ROTATION,
                    regs.last_rotation * t_set,
                    boundary * t_set,
                    u32::from(*port),
                );
                regs.last_rotation = boundary;
            }
        }
    }

    /// Data-plane update for queue `queue`'s monitor on enqueue.
    pub fn qm_enqueue(&mut self, port: u16, queue: u8, flow: FlowId, depth_cells: u32, now: Nanos) {
        if let Some(i) = self.port_index(port) {
            self.ports[i]
                .1
                .monitor_mut(queue)
                .on_enqueue(flow, depth_cells, now);
        }
    }

    /// The egress pipeline's data-plane updates for a packet of `flow` that
    /// left `port`'s queue `queue` at `deq_ts`, leaving it `depth_cells`
    /// deep: the queue's monitor, then the time windows, with the port's
    /// registers looked up once. Returns whether PrintQueue is active on
    /// `port`.
    pub fn on_dequeue(
        &mut self,
        port: u16,
        queue: u8,
        flow: FlowId,
        depth_cells: u32,
        deq_ts: Nanos,
    ) -> bool {
        let Some(i) = self.port_index(port) else {
            return false;
        };
        self.ports[i]
            .1
            .monitor_mut(queue)
            .on_dequeue(flow, depth_cells, deq_ts);
        self.record_dequeue_at(i, flow, deq_ts);
        true
    }

    /// Periodic control-plane tick. Services due retries first, then — when
    /// a poll period has elapsed — freezes and reads every active port's
    /// registers (§6.2 "periodic reads").
    pub fn on_tick(&mut self, now: Nanos) {
        let serviced = self.service_retries(now);
        if now < self.last_poll + self.control.poll_period {
            return;
        }
        self.last_poll = now;
        for (i, &just_read) in serviced.iter().enumerate() {
            // A port serviced by a retry at this very tick was just read;
            // a port with a pending retry has a read in flight that
            // subsumes this poll; a port whose spare copy is still occupied
            // queues the poll behind the in-flight read.
            if just_read || self.ports[i].1.retry.is_some() {
                continue;
            }
            let busy_until = self.ports[i].1.read_busy_until;
            if now < busy_until {
                self.ports[i].1.retry = Some(PendingRead {
                    next_attempt_at: busy_until,
                    attempt: 0,
                    on_demand: false,
                    trigger: None,
                });
                continue;
            }
            self.attempt_read(i, now, false, None, 0);
        }
    }

    /// Run every due pending read; returns which ports were serviced.
    fn service_retries(&mut self, now: Nanos) -> Vec<bool> {
        let mut serviced = vec![false; self.ports.len()];
        for (i, slot) in serviced.iter_mut().enumerate() {
            let due = matches!(self.ports[i].1.retry, Some(p) if now >= p.next_attempt_at);
            if !due {
                continue;
            }
            let pending = self.ports[i].1.retry.take().expect("pending read is due");
            self.attempt_read(i, now, pending.on_demand, pending.trigger, pending.attempt);
            *slot = true;
        }
        serviced
    }

    /// A data-plane query trigger fired on `port` for a packet whose
    /// queueing spanned `interval` (§6.2 "on-demand reads"). Returns true
    /// when the trigger was honored (possibly completing only after
    /// retries), false when ignored because a special read was already in
    /// progress.
    pub fn dp_query(&mut self, port: u16, interval: QueryInterval, now: Nanos) -> bool {
        let Some(i) = self.port_index(port) else {
            return false;
        };
        let regs = &self.ports[i].1;
        let special_busy =
            now < regs.special_locked_until || matches!(regs.retry, Some(p) if p.on_demand);
        if special_busy {
            // "Concurrent reads will be temporarily ignored until
            // PrintQueue can finish reading the special register set."
            self.dp_queries_ignored += 1;
            self.counters.dp_triggers_rejected.inc();
            return false;
        }
        self.attempt_read(i, now, true, Some(interval), 0);
        true
    }

    /// One freeze-and-read attempt against port `i`. Succeeds and stores a
    /// checkpoint, or (under fault injection) fails/stalls and schedules a
    /// backed-off retry. Returns whether a read completed now.
    fn attempt_read(
        &mut self,
        i: usize,
        now: Nanos,
        on_demand: bool,
        trigger: Option<QueryInterval>,
        attempt: u32,
    ) -> bool {
        self.counters.polls_attempted.inc();
        if attempt > 0 {
            self.counters.polls_retried.inc();
        }
        if self.faults.is_none() {
            // Perfect substrate: the original synchronous, infallible read.
            self.complete_read(i, now, 0, on_demand, trigger, false);
            return true;
        }
        let port = self.ports[i].0;
        let injector = self.faults.as_mut().expect("injector present");
        let failed = if injector.stalled(port, now) {
            self.counters.polls_stalled.inc();
            true
        } else if injector.read_fails(port) {
            self.counters.polls_failed.inc();
            true
        } else {
            false
        };
        if failed {
            if self.retry_policy.at_ceiling(attempt) {
                self.counters.backoff_ceiling_hits.inc();
            }
            let delay = self
                .faults
                .as_mut()
                .expect("injector present")
                .backoff(&self.retry_policy, attempt);
            self.ports[i].1.retry = Some(PendingRead {
                next_attempt_at: now.saturating_add(delay),
                attempt: attempt.saturating_add(1),
                on_demand,
                trigger,
            });
            return false;
        }
        let injector = self.faults.as_mut().expect("injector present");
        let latency = injector.read_latency(port);
        let dropped = injector.drop_checkpoint(port);
        self.complete_read(i, now, latency, on_demand, trigger, dropped);
        true
    }

    /// Freeze-and-read port `i`'s registers into a checkpoint. The rings
    /// keep rolling (see the module docs on why nothing is flipped or
    /// cleared in zero-read-time simulation); the read occupies the spare
    /// (or special) copy for `latency` nanoseconds.
    fn complete_read(
        &mut self,
        i: usize,
        now: Nanos,
        latency: Nanos,
        on_demand: bool,
        trigger: Option<QueryInterval>,
        dropped: bool,
    ) {
        pq_prof::scope!("control/freeze_read");
        let gate = self.freeze_gate.lock();
        let poisoned = gate.was_poisoned();
        let regs = &mut self.ports[i].1;
        if on_demand {
            // The special set stays locked for the duration of the read;
            // with zero latency this expires immediately, reproducing the
            // original synchronous release.
            regs.special_locked_until = now.saturating_add(latency);
        }
        regs.read_busy_until = regs.read_busy_until.max(now.saturating_add(latency));
        // Windows and monitor chunks no packet wrote since their last
        // freeze are shared with that freeze's snapshot, not copied (and
        // the store's encoder recognises them by address). What each
        // freeze copied is counted against its own previous freeze, which
        // a dropped checkpoint does not undo.
        let (windows, tw_captured) = regs.time_windows.freeze_counted();
        let mut qm_captured = 0;
        let queue_monitors: Vec<QueueMonitorSnapshot> = regs
            .queue_monitors
            .iter_mut()
            .map(|m| {
                let (snapshot, rebuilt) = m.freeze_counted();
                qm_captured += rebuilt;
                snapshot
            })
            .collect();
        drop(gate);
        if poisoned {
            // A reader died mid-freeze. Recover, but surface the event
            // the way every other degradation surfaces: a coverage gap
            // at the recovery instant (zero-length — no history was
            // provably lost, but the record and the counters mark it).
            self.record_gap(i, CoverageGap { from: now, to: now });
        }

        // Bandwidth accounting: every cell of every window (8 B) plus every
        // queue-monitor entry (16 B: two halves of flow+seq) — the whole
        // array, occupied or not, since the hardware read cannot skip
        // registers. The bytes crossed PCIe even if the checkpoint is
        // subsequently lost.
        let tw_entries = u64::from(self.tw_config.t) * self.tw_config.cells() as u64;
        let qm_entries: u64 = queue_monitors.iter().map(|m| m.len() as u64).sum();
        let qm_occupied: usize = queue_monitors.iter().map(|m| m.occupied_len()).sum();
        self.counters.qm_occupied_entries.record(qm_occupied as u64);
        self.counters.qm_captured_entries.record(qm_captured as u64);
        self.counters.tw_captured_cells.record(tw_captured as u64);
        self.entries_read += tw_entries + qm_entries;
        self.bytes_read += tw_entries * 8 + qm_entries * 16;
        self.counters.entries_read.add(tw_entries + qm_entries);
        self.counters
            .bytes_read
            .add(tw_entries * 8 + qm_entries * 16);
        self.counters.read_ns.record(latency);
        if self.telemetry.tracing_enabled() {
            self.telemetry.spans().record(
                names::SPAN_FREEZE_READ,
                now,
                now.saturating_add(latency),
                u32::from(self.ports[i].0),
            );
        }

        if dropped {
            // Lost before storage: the periodic chain keeps its old
            // `last_checkpoint_at`, so the next successful store sees (and
            // records) the full gap this loss opened.
            self.counters.checkpoints_dropped.inc();
            return;
        }

        if !on_demand {
            // Missed-poll detection: the rings only hold `t_set` of
            // history, so a longer silence means unrecoverable loss.
            let t_set = self.tw_config.set_period();
            if let Some(last) = self.ports[i].1.last_checkpoint_at {
                if now.saturating_sub(last) > t_set {
                    self.record_gap(
                        i,
                        CoverageGap {
                            from: last,
                            to: now,
                        },
                    );
                }
            }
            self.ports[i].1.last_checkpoint_at = Some(now);
        }
        self.counters.checkpoints_stored.inc();

        let cp = Checkpoint {
            frozen_at: now,
            on_demand,
            trigger,
            windows,
            queue_monitors,
        };
        if let Some(sink) = self.spill.as_mut() {
            if sink.on_checkpoint(self.ports[i].0, &cp).is_err() {
                self.counters.spill_errors.inc();
            }
        }
        if self.checkpoints[i].push(cp, self.control.max_snapshots) {
            self.counters.ring_evictions.inc();
        }
    }

    /// Port `i`'s coverage gaps that `keep` selects, oldest first: the span
    /// the snapshot ring has evicted, then the recorded gaps.
    fn gaps_where(&self, i: usize, keep: impl Fn(&CoverageGap) -> bool) -> Vec<CoverageGap> {
        self.checkpoints[i]
            .evicted
            .iter()
            .chain(&self.gaps[i])
            .filter(|g| keep(g))
            .copied()
            .collect()
    }

    /// Record a coverage gap on port `i`: counted, handed to the spill
    /// sink, and kept in the port's bounded gap list.
    fn record_gap(&mut self, i: usize, gap: CoverageGap) {
        self.counters.coverage_gaps.inc();
        self.counters.gap_ns.add(gap.len());
        if let Some(sink) = self.spill.as_mut() {
            if sink.on_gap(self.ports[i].0, gap).is_err() {
                self.counters.spill_errors.inc();
            }
        }
        let gaps = &mut self.gaps[i];
        gaps.push(gap);
        if gaps.len() > MAX_STORED_GAPS {
            let excess = gaps.len() - MAX_STORED_GAPS;
            gaps.drain(..excess);
        }
    }

    /// All stored checkpoints for `port`, oldest first.
    pub fn checkpoints(&self, port: u16) -> &[Checkpoint] {
        let i = self.port_index(port).expect("port not activated");
        self.checkpoints[i].as_slice()
    }

    /// §6.3 asynchronous time-window query: per-flow packet counts over
    /// `interval` on `port`, splitting the interval across every stored
    /// checkpoint that covers part of it. The answer is annotated with any
    /// coverage gaps overlapping the interval.
    pub fn query_time_windows(&self, port: u16, interval: QueryInterval) -> QueryResult {
        self.query_time_windows_with(port, interval, &self.coeffs)
    }

    /// Like [`AnalysisProgram::query_time_windows`] but with caller-supplied
    /// coefficients (the coefficient-recovery ablation passes all-ones).
    /// Its wall time is recorded in `pq_control_query_ns`.
    pub fn query_time_windows_with(
        &self,
        port: u16,
        interval: QueryInterval,
        coeffs: &Coefficients,
    ) -> QueryResult {
        let started = Instant::now();
        let i = self.port_index(port).expect("port not activated");
        let mut result = FlowEstimates::default();
        query_slices(
            self.checkpoints[i].as_slice(),
            interval,
            coeffs,
            None,
            &mut result,
        );
        let gaps = self.gaps_where(i, |g| g.overlaps(interval));
        let answer = QueryResult::covering(
            result,
            gaps,
            interval,
            self.ports[i].1.last_checkpoint_at,
            self.tw_config.set_period(),
        );
        self.counters
            .query_ns
            .record(started.elapsed().as_nanos() as u64);
        answer
    }

    /// Query an on-demand (special) checkpoint directly: the data-plane
    /// query path, which reads the freshest registers. `which` selects among
    /// on-demand checkpoints (`None` = most recent).
    pub fn query_special(&self, port: u16, which: Option<usize>) -> Option<FlowEstimates> {
        let i = self.port_index(port).expect("port not activated");
        let stored = self.checkpoints[i].as_slice();
        let specials: Vec<usize> = stored
            .iter()
            .enumerate()
            .filter(|(_, c)| c.on_demand)
            .map(|(idx, _)| idx)
            .collect();
        let idx = match which {
            Some(w) => *specials.get(w)?,
            None => *specials.last()?,
        };
        let cp = &stored[idx];
        let interval = cp.trigger?;
        Some(cp.windows.query(interval, &self.coeffs))
    }

    /// §6.3 queue-monitor query: the original culprits at the instant
    /// closest to `at`, for the port's first queue (FIFO ports). The answer
    /// carries freshness and coverage annotations.
    pub fn query_queue_monitor(&self, port: u16, at: Nanos) -> Option<QueueMonitorAnswer<'_>> {
        self.query_queue_monitor_for(port, 0, at)
    }

    /// Per-queue variant of [`AnalysisProgram::query_queue_monitor`]: the
    /// original culprits of one specific egress queue ("the queue monitor
    /// can track each priority or rank separately", §5).
    pub fn query_queue_monitor_for(
        &self,
        port: u16,
        queue: u8,
        at: Nanos,
    ) -> Option<QueueMonitorAnswer<'_>> {
        let i = self.port_index(port).expect("port not activated");
        let cp = self.checkpoints[i]
            .as_slice()
            .iter()
            .min_by_key(|cp| cp.frozen_at.abs_diff(at))?;
        let snapshot = cp.queue_monitors.get(usize::from(queue))?;
        let staleness = cp.frozen_at.abs_diff(at);
        let gaps = self.gaps_where(i, |g| g.contains(at));
        let degraded = !gaps.is_empty() || staleness > self.tw_config.set_period();
        Some(QueueMonitorAnswer {
            snapshot,
            frozen_at: cp.frozen_at,
            staleness,
            gaps,
            degraded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, FaultProfile, LatencyModel};

    fn config(poll: Nanos) -> PrintQueueConfig {
        // Tiny: 64 cells, 2 windows → set period 64 + 128 = 192 ns.
        let tw = TimeWindowConfig::new(0, 1, 6, 2);
        PrintQueueConfig {
            control: ControlConfig {
                poll_period: poll,
                max_snapshots: 8,
            },
            qm_entries: 32,
            ..PrintQueueConfig::single_port(tw, 1)
        }
    }

    fn program(poll: Nanos) -> AnalysisProgram {
        AnalysisProgram::new(&config(poll))
    }

    /// [`program`] polling every 64 ns under `faults`.
    fn faulty(faults: FaultConfig) -> AnalysisProgram {
        AnalysisProgram::new(&config(64).with_faults(faults))
    }

    #[test]
    fn poisoned_freeze_gate_recovers_and_records_a_gap() {
        let mut ap = program(64);
        // Panic while holding the freeze gate from another thread: the
        // next freeze-and-read must recover (not panic or wedge) and
        // surface the event as a CoverageGap.
        std::thread::scope(|s| {
            let gate = &ap.freeze_gate;
            let _ = s
                .spawn(move || {
                    let _g = gate.lock();
                    panic!("die mid-freeze");
                })
                .join();
        });
        assert!(ap.coverage_gaps(0).is_empty());
        ap.on_tick(64);
        assert!(
            !ap.checkpoints(0).is_empty(),
            "freeze-and-read still stores checkpoints after poisoning"
        );
        let gaps = ap.coverage_gaps(0);
        assert_eq!(gaps.len(), 1, "poisoning surfaced as a coverage gap");
        assert_eq!(gaps[0].from, gaps[0].to, "recovery gap is zero-length");
        let snap = ap.telemetry().snapshot();
        assert!(
            snap.counter_sum(names::CONTROL_COVERAGE_GAPS) >= 1,
            "gap counter incremented"
        );
    }

    #[test]
    fn inactive_ports_are_ignored() {
        let mut ap = program(64);
        assert!(!ap.is_active(5));
        ap.record_dequeue(5, FlowId(1), 10);
        ap.on_tick(64);
        assert!(ap.checkpoints(0)[0].windows.occupancy(0) == 0);
    }

    #[test]
    fn periodic_polls_create_checkpoints() {
        let mut ap = program(64);
        for t in 0..10u64 {
            ap.record_dequeue(0, FlowId(1), t);
        }
        ap.on_tick(64);
        assert_eq!(ap.checkpoints(0).len(), 1);
        assert!(!ap.checkpoints(0)[0].on_demand);
        assert_eq!(ap.checkpoints(0)[0].frozen_at, 64);
        // Data went into the frozen copy; the snapshot holds it.
        assert_eq!(ap.checkpoints(0)[0].windows.occupancy(0), 10);
    }

    #[test]
    fn rings_persist_across_freezes() {
        let mut ap = program(64);
        ap.record_dequeue(0, FlowId(1), 1);
        ap.on_tick(64);
        // The rings keep rolling: the second snapshot still holds the old
        // packet (the query slicer, not the registers, prevents double
        // counting across checkpoints). 66 maps to cell 2, away from
        // flow 1's cell 1, so nothing is evicted.
        ap.record_dequeue(0, FlowId(2), 66);
        ap.on_tick(128);
        let cps = ap.checkpoints(0);
        assert_eq!(cps.len(), 2);
        assert_eq!(cps[1].windows.occupancy(0), 2);
        // Query across both checkpoints: exactly two packets, no double
        // count of flow 1.
        let est = ap.query_time_windows(0, QueryInterval::new(0, 100));
        assert_eq!(est.counts[&FlowId(1)], 1.0);
        assert_eq!(est.counts[&FlowId(2)], 1.0);
    }

    #[test]
    fn query_spans_checkpoints() {
        let mut ap = program(16);
        // Packets at t = 0..16 land in the first checkpoint, 16..48 in the
        // second; a query over [0, 47] must stitch both without double
        // counting.
        for t in 0..16u64 {
            ap.record_dequeue(0, FlowId((t % 2) as u32), t);
        }
        ap.on_tick(16);
        for t in 16..48u64 {
            ap.record_dequeue(0, FlowId((t % 2) as u32), t);
        }
        ap.on_tick(48);
        let est = ap.query_time_windows(0, QueryInterval::new(0, 47));
        let total = est.total();
        assert!(
            (44.0..=48.0).contains(&total),
            "expected ≈48 packets across checkpoints, got {total}"
        );
    }

    #[test]
    fn dp_query_locks_special_set() {
        let mut ap = program(64);
        ap.record_dequeue(0, FlowId(7), 5);
        assert!(ap.dp_query(0, QueryInterval::new(0, 10), 6));
        // Our freeze-and-read completes synchronously, so the lock releases
        // immediately; a second trigger succeeds and the counter stays 0.
        assert!(ap.dp_query(0, QueryInterval::new(0, 10), 7));
        assert_eq!(ap.dp_queries_ignored, 0);
        let est = ap.query_special(0, Some(0)).expect("special checkpoint");
        assert_eq!(est.counts[&FlowId(7)], 1.0);
    }

    #[test]
    fn snapshot_ring_is_bounded() {
        let mut ap = program(4);
        for poll in 1..=20u64 {
            ap.on_tick(poll * 4);
        }
        assert_eq!(ap.checkpoints(0).len(), 8);
    }

    #[test]
    fn snapshot_ring_equals_naive_eviction_at_every_step() {
        let mut ap = program(4);
        let mut naive: Vec<Checkpoint> = Vec::new();
        for poll in 1..=24u64 {
            ap.record_dequeue(0, FlowId(poll as u32), poll * 4 - 1);
            ap.qm_enqueue(0, 0, FlowId(poll as u32), poll as u32 % 32, poll * 4 - 1);
            ap.on_tick(poll * 4);
            naive.push(ap.checkpoints(0).last().unwrap().clone());
            if naive.len() > 8 {
                naive.remove(0);
            }
            assert_eq!(ap.checkpoints(0), naive, "after poll {poll}");
        }
        assert_eq!(ap.checkpoints(0)[0].frozen_at, 17 * 4);
    }

    #[test]
    fn recorded_gaps_are_bounded() {
        let mut ap = program(64);
        for t in 0..5_000u64 {
            ap.record_gap(0, CoverageGap { from: t, to: t + 1 });
        }
        let gaps = ap.coverage_gaps(0);
        assert_eq!(gaps.len(), MAX_STORED_GAPS);
        assert_eq!(
            gaps[0].from,
            5_000 - MAX_STORED_GAPS as u64,
            "the oldest rotate out"
        );
        assert_eq!(ap.health().coverage_gaps, 5_000);
        assert_eq!(ap.health().gap_ns, 5_000);
    }

    #[test]
    fn bandwidth_accounting_grows_per_poll() {
        let mut ap = program(64);
        ap.on_tick(64);
        let after_one = ap.bytes_read;
        ap.on_tick(128);
        assert_eq!(ap.bytes_read, after_one * 2);
        // 2 windows × 64 cells × 8 B + 32 QM entries × 16 B.
        assert_eq!(after_one, 2 * 64 * 8 + 32 * 16);
    }

    #[test]
    fn queue_monitor_query_picks_nearest() {
        let mut ap = program(64);
        ap.qm_enqueue(0, 0, FlowId(1), 1, 10);
        ap.on_tick(64);
        ap.qm_enqueue(0, 0, FlowId(2), 1, 70);
        ap.on_tick(128);
        let near_first = ap.query_queue_monitor(0, 70).unwrap();
        let culprits = near_first.original_culprits();
        assert_eq!(culprits.len(), 1);
        assert_eq!(culprits[0].flow, FlowId(1));
        assert_eq!(near_first.frozen_at, 64);
        assert_eq!(near_first.staleness, 6);
        assert!(!near_first.degraded);
        let near_second = ap.query_queue_monitor(0, 127).unwrap();
        assert_eq!(near_second.original_culprits()[0].flow, FlowId(2));
    }

    #[test]
    #[should_panic(expected = "coverage gap")]
    fn poll_slower_than_set_period_rejected() {
        let tw = TimeWindowConfig::new(0, 1, 4, 2);
        let mut config = PrintQueueConfig::single_port(tw, 1);
        config.control.poll_period = tw.set_period() + 1;
        let _ = AnalysisProgram::new(&config);
    }

    #[test]
    fn zero_fault_injector_matches_no_injector() {
        // A benign injector must leave every observable identical to the
        // original path: same checkpoints, same query answers, no health
        // noise beyond the attempt counter.
        let mut plain = program(64);
        let mut injected = faulty(FaultConfig::new(3));
        for t in 0..200u64 {
            plain.record_dequeue(0, FlowId((t % 3) as u32), t);
            injected.record_dequeue(0, FlowId((t % 3) as u32), t);
            if t % 64 == 0 {
                plain.on_tick(t);
                injected.on_tick(t);
            }
        }
        assert_eq!(plain.checkpoints(0).len(), injected.checkpoints(0).len());
        let q = QueryInterval::new(0, 199);
        let a = plain.query_time_windows(0, q);
        let b = injected.query_time_windows(0, q);
        assert_eq!(a.estimates.counts, b.estimates.counts);
        assert!(!a.degraded && !b.degraded);
        assert_eq!(injected.health().polls_failed, 0);
        assert_eq!(injected.health().coverage_gaps, 0);
        assert_eq!(plain.bytes_read, injected.bytes_read);
    }

    #[test]
    fn failed_reads_schedule_backed_off_retries() {
        let mut ap = AnalysisProgram::new(&PrintQueueConfig {
            retry: RetryPolicy {
                base_backoff: 16,
                max_backoff: 64,
                jitter: 0.0,
            },
            ..config(64)
                .with_faults(FaultConfig::new(5).with_base(FaultProfile::read_failures(1.0)))
        });
        for t in 1..=100u64 {
            ap.on_tick(t * 4);
        }
        let health = ap.health();
        assert!(health.polls_failed > 0, "injector never failed a read");
        assert!(health.polls_retried > 0, "failures were not retried");
        assert_eq!(health.checkpoints_stored, 0, "every read fails");
        assert!(health.backoff_ceiling_hits > 0, "backoff never hit its cap");
        assert!(ap.checkpoints(0).is_empty());
    }

    #[test]
    fn coverage_gap_recorded_after_outage() {
        // t_set = 192 ns. A poll at 64, then control-plane silence until
        // 640 (e.g. the poller was wedged): the next successful poll must
        // record the > t_set gap, and queries over it must be flagged.
        let mut ap = program(64);
        ap.on_tick(64);
        ap.on_tick(640);
        assert_eq!(ap.health().coverage_gaps, 1);
        assert_eq!(ap.coverage_gaps(0), &[CoverageGap { from: 64, to: 640 }]);
        assert_eq!(ap.health().gap_ns, 576);

        let over_gap = ap.query_time_windows(0, QueryInterval::new(100, 300));
        assert!(over_gap.degraded, "query across the gap must be degraded");
        assert_eq!(over_gap.gaps.len(), 1);
        let qm = ap.query_queue_monitor(0, 300).expect("checkpoint exists");
        assert!(qm.degraded, "instant inside the gap must be degraded");

        // A query fully before the gap is clean.
        let before = ap.query_time_windows(0, QueryInterval::new(0, 60));
        assert!(!before.degraded);
    }

    #[test]
    fn open_ended_outage_degrades_future_queries() {
        let mut ap = program(64);
        ap.on_tick(64);
        // No further polls ever happen; a query reaching past 64 + t_set
        // must carry a synthetic open gap.
        let est = ap.query_time_windows(0, QueryInterval::new(0, 10_000));
        assert!(est.degraded);
        assert_eq!(est.gaps.last().unwrap().from, 64);
    }

    #[test]
    fn read_latency_locks_special_set_for_duration() {
        let mut ap = faulty(FaultConfig::new(2).with_base(FaultProfile {
            read_latency: LatencyModel::Fixed(50),
            ..FaultProfile::none()
        }));
        assert!(ap.dp_query(0, QueryInterval::new(0, 10), 100));
        // The special set is held for 50 ns: a trigger at 120 is rejected,
        // one at 160 is honored.
        assert!(!ap.dp_query(0, QueryInterval::new(0, 10), 120));
        assert_eq!(ap.dp_queries_ignored, 1);
        assert_eq!(ap.health().dp_triggers_rejected, 1);
        assert!(ap.dp_query(0, QueryInterval::new(0, 10), 160));
        assert_eq!(ap.dp_queries_ignored, 1);
    }

    #[test]
    fn poll_queued_behind_inflight_read_completes_later() {
        let mut ap = faulty(FaultConfig::new(4).with_base(FaultProfile {
            read_latency: LatencyModel::Fixed(100),
            ..FaultProfile::none()
        }));
        ap.on_tick(64); // read occupies the spare copy until 164
        ap.on_tick(128); // poll due but spare busy → queued
        assert_eq!(ap.checkpoints(0).len(), 1);
        ap.on_tick(200); // queued poll drains
        assert!(ap.checkpoints(0).len() >= 2);
    }

    #[test]
    fn dropped_checkpoints_open_gaps() {
        let mut ap = faulty(FaultConfig::new(9).with_base(FaultProfile {
            drop_checkpoint_prob: 1.0,
            ..FaultProfile::none()
        }));
        for t in 1..=10u64 {
            ap.on_tick(t * 64);
        }
        let health = ap.health();
        assert_eq!(health.checkpoints_stored, 0);
        assert_eq!(health.checkpoints_dropped, 10);
        assert!(ap.checkpoints(0).is_empty());
        // Every read crossed PCIe even though the checkpoints were lost.
        assert!(ap.bytes_read > 0);
    }

    /// Two polls, nothing written between them, both checkpoints dropped:
    /// the sum of `name` over both freezes.
    fn captured_over_two_dropped_polls(name: &str) -> u64 {
        let mut ap = faulty(FaultConfig::new(9).with_base(FaultProfile {
            drop_checkpoint_prob: 1.0,
            ..FaultProfile::none()
        }));
        for depth in 1..=3u32 {
            ap.qm_enqueue(0, 0, FlowId(depth), depth, 1);
        }
        ap.record_dequeue(0, FlowId(1), 5);
        ap.on_tick(64);
        ap.on_tick(128);
        assert_eq!(ap.health().checkpoints_dropped, 2);
        let snap = ap.telemetry().snapshot();
        snap.histogram(name, &[]).expect("recorded").hist.sum
    }

    /// A dropped checkpoint was still frozen: the next freeze shares the
    /// monitor's unchanged rows with it, so they are captured once.
    #[test]
    fn captured_entries_count_against_the_previous_freeze_not_the_stored_checkpoint() {
        assert_eq!(
            captured_over_two_dropped_polls(names::CONTROL_QM_CAPTURED_ENTRIES),
            3
        );
    }

    /// The first freeze copies both windows, the second shares them.
    #[test]
    fn captured_cells_count_against_the_previous_freeze() {
        assert_eq!(
            captured_over_two_dropped_polls(names::CONTROL_TW_CAPTURED_CELLS),
            2 * 64
        );
    }

    #[test]
    fn empty_queue_monitor_checkpoint_is_guarded() {
        let mut ap = program(64);
        ap.on_tick(64);
        let cp = &ap.checkpoints(0)[0];
        assert!(cp.queue_monitor().is_some(), "FIFO ports have one monitor");
        // Out-of-range queue indices return None instead of panicking.
        assert!(ap.query_queue_monitor_for(0, 9, 64).is_none());
    }
}
