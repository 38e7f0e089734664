//! The per-switch PrintQueue facade (Figure 3's architecture).
//!
//! [`PrintQueue`] wires the data-plane structures and the control-plane
//! analysis program to the `pq-switch` hook points:
//!
//! * `on_enqueue` / `on_dequeue` feed the queue monitor,
//! * `on_dequeue` feeds the time windows (the egress pipeline runs after
//!   the traffic manager, seeing the Table-1 metadata),
//! * `on_dequeue` also evaluates the data-plane query trigger ("the egress
//!   pipeline can automatically trigger a local query when it detects high
//!   queuing", §3),
//! * `on_tick` runs the analysis program's periodic polling.

use crate::control::{AnalysisProgram, ControlConfig};
use crate::faults::{FaultConfig, RetryPolicy};
use crate::params::TimeWindowConfig;
use crate::snapshot::QueryInterval;
use pq_packet::{Nanos, SimPacket};
use pq_switch::QueueHooks;
use pq_telemetry::Telemetry;
use serde::Serialize;

/// When should the data plane trigger an on-demand query?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DataPlaneTrigger {
    /// Trigger when a dequeued packet's queueing delay is at least this.
    pub min_deq_timedelta: u32,
    /// Trigger when a dequeued packet's enqueue-time depth was at least
    /// this many cells.
    pub min_enq_qdepth: u32,
    /// Minimum time between triggers. Each on-demand freeze costs a special
    /// register read ("operators should be judicious about initiating
    /// data-plane queries", §7.1); the cooldown models that judiciousness
    /// and lets the windows refill between freezes.
    pub cooldown: Nanos,
}

impl DataPlaneTrigger {
    fn fires(&self, pkt: &SimPacket) -> bool {
        pkt.meta.deq_timedelta >= self.min_deq_timedelta
            || pkt.meta.enq_qdepth >= self.min_enq_qdepth
    }
}

/// Whole-system configuration.
#[derive(Debug, Clone, Serialize)]
pub struct PrintQueueConfig {
    /// Time-window parameters.
    pub time_windows: TimeWindowConfig,
    /// Control-plane polling parameters.
    pub control: ControlConfig,
    /// Ports to activate (§6.1).
    pub ports: Vec<u16>,
    /// Queue-monitor entries per port.
    pub qm_entries: usize,
    /// Buffer cells per queue-monitor entry.
    pub qm_cells_per_entry: u32,
    /// Transmission delay of a minimum-sized packet (`d` of Theorem 3).
    pub min_pkt_tx_delay: Nanos,
    /// Optional data-plane query trigger.
    pub trigger: Option<DataPlaneTrigger>,
    /// Ablation switch: disable the Algorithm-1 passing rule (every
    /// eviction drops). For the design-choice benchmarks only.
    pub ablate_passing: bool,
    /// Egress queues per activated port; each gets its own queue monitor
    /// ("multiple queues are tracked individually", §5). 1 for FIFO ports.
    pub queues_per_port: u8,
    /// Optional control-plane fault injection (see [`crate::faults`]).
    /// `None` (the default) keeps the perfect substrate.
    pub faults: Option<FaultConfig>,
    /// Retry/backoff policy for failed control-plane reads. Only exercised
    /// under fault injection.
    pub retry: RetryPolicy,
}

impl PrintQueueConfig {
    /// A reasonable single-port setup for `tw` with polling once per set
    /// period and a 32 Ki-entry queue monitor.
    pub fn single_port(tw: TimeWindowConfig, min_pkt_tx_delay: Nanos) -> PrintQueueConfig {
        PrintQueueConfig {
            control: ControlConfig::per_set_period(&tw, 4096),
            time_windows: tw,
            ports: vec![0],
            qm_entries: 32 * 1024,
            qm_cells_per_entry: 1,
            min_pkt_tx_delay,
            trigger: None,
            ablate_passing: false,
            queues_per_port: 1,
            faults: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Builder-style trigger installation.
    pub fn with_trigger(mut self, trigger: DataPlaneTrigger) -> PrintQueueConfig {
        self.trigger = Some(trigger);
        self
    }

    /// Builder-style fault-injection installation.
    pub fn with_faults(mut self, faults: FaultConfig) -> PrintQueueConfig {
        self.faults = Some(faults);
        self
    }
}

/// The per-switch PrintQueue instance. Attach to a [`pq_switch::Switch`]
/// run as a hook; query through [`PrintQueue::analysis`] /
/// [`PrintQueue::analysis_mut`] afterwards (or during, for staged
/// experiments).
pub struct PrintQueue {
    config: PrintQueueConfig,
    analysis: AnalysisProgram,
    /// Data-plane triggers that fired: (port, interval, time, trigger
    /// packet's enqueue-time depth in cells).
    pub triggers_fired: Vec<(u16, QueryInterval, Nanos, u32)>,
    /// Time of the most recent trigger (cooldown gate).
    last_trigger: Option<Nanos>,
}

impl PrintQueue {
    /// Build from configuration.
    pub fn new(config: PrintQueueConfig) -> PrintQueue {
        let analysis = AnalysisProgram::new(&config);
        PrintQueue {
            config,
            analysis,
            triggers_fired: Vec::new(),
            last_trigger: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PrintQueueConfig {
        &self.config
    }

    /// The analysis program (queries, checkpoints).
    pub fn analysis(&self) -> &AnalysisProgram {
        &self.analysis
    }

    /// Mutable analysis program (query execution filters lazily).
    pub fn analysis_mut(&mut self) -> &mut AnalysisProgram {
        &mut self.analysis
    }

    /// Consume the data-plane wrapper and keep only the analysis program —
    /// the read-only query state a serving layer shares across workers
    /// once a run is finished.
    pub fn into_analysis(self) -> AnalysisProgram {
        self.analysis
    }

    /// Attach a shared telemetry plane (forwarded to the analysis
    /// program). Pair with [`pq_switch::Switch::set_telemetry`] on the
    /// same plane so switch and control-plane series share one namespace.
    pub fn set_telemetry(&mut self, plane: &Telemetry) {
        self.analysis.set_telemetry(plane);
    }

    /// The telemetry plane in use.
    pub fn telemetry(&self) -> &Telemetry {
        self.analysis.telemetry()
    }
}

impl QueueHooks for PrintQueue {
    fn on_enqueue(&mut self, pkt: &SimPacket, port: u16, depth_after: u32, now: Nanos) {
        self.analysis
            .qm_enqueue(port, pkt.meta.queue, pkt.flow, depth_after, now);
    }

    fn on_dequeue(&mut self, pkt: &SimPacket, port: u16, depth_after: u32, now: Nanos) {
        // Time windows index on the dequeue timestamp (§4.2).
        let deq_ts = pkt.meta.deq_timestamp();
        debug_assert_eq!(deq_ts, now);
        let active = self
            .analysis
            .on_dequeue(port, pkt.meta.queue, pkt.flow, depth_after, deq_ts);
        if let Some(trigger) = self.config.trigger {
            let cooled = self
                .last_trigger
                .is_none_or(|t| now >= t + trigger.cooldown);
            if cooled && trigger.fires(pkt) && active {
                let interval = QueryInterval::new(pkt.meta.enq_timestamp, deq_ts);
                if self.analysis.dp_query(port, interval, now) {
                    self.triggers_fired
                        .push((port, interval, now, pkt.meta.enq_qdepth));
                    self.last_trigger = Some(now);
                }
            }
        }
    }

    fn on_tick(&mut self, now: Nanos) {
        self.analysis.on_tick(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_packet::{FlowId, NanosExt};
    use pq_switch::{Arrival, Switch, SwitchConfig, TelemetrySink};

    fn arrivals(n: u64, len: u32, gap: Nanos) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival::new(SimPacket::new(FlowId((i % 3) as u32), len, i * gap), 0))
            .collect()
    }

    fn pq(tw: TimeWindowConfig) -> PrintQueue {
        PrintQueue::new(PrintQueueConfig::single_port(tw, 64))
    }

    #[test]
    fn end_to_end_records_and_polls_exactly_at_line_rate() {
        let tw = TimeWindowConfig::new(6, 1, 8, 3);
        // 80 B packets at 10 Gbps: one per 64 ns = one per window-0 cell
        // period — §4.1's no-collision regime, so window 0 holds every
        // packet and the query is exact.
        let mut printqueue = pq(tw);
        let mut sink = TelemetrySink::new();
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 10_000));
        {
            let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut printqueue, &mut sink];
            sw.run(arrivals(200, 80, 64), &mut hooks, tw.set_period());
        }
        assert_eq!(sink.records.len(), 200);
        let cps = printqueue.analysis().checkpoints(0);
        assert!(!cps.is_empty(), "periodic polling produced no checkpoints");
        let last_deq = sink
            .records
            .iter()
            .map(|r| r.deq_timestamp())
            .max()
            .unwrap();
        let est = printqueue
            .analysis_mut()
            .query_time_windows(0, QueryInterval::new(0, last_deq));
        assert_eq!(est.counts.len(), 3, "three flows must be seen");
        // The final packet's cell extends past its dequeue instant and is
        // prorated by overlap, so the total can fall short by less than one
        // packet; everything else is exact.
        let total = est.total();
        assert!(
            (199.0..=200.0).contains(&total),
            "uncompressed window 0 must be near-exact, got {total}"
        );
    }

    #[test]
    fn trigger_fires_on_high_delay() {
        let tw = TimeWindowConfig::new(6, 1, 8, 3);
        let mut printqueue = PrintQueue::new(PrintQueueConfig::single_port(tw, 64).with_trigger(
            DataPlaneTrigger {
                min_deq_timedelta: 50_000,
                min_enq_qdepth: u32::MAX,
                cooldown: 0,
            },
        ));
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 100_000));
        {
            let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut printqueue];
            sw.run(arrivals(400, 1500, 600), &mut hooks, tw.set_period());
        }
        // Delay grows by 600 ns per packet; packets past ~#84 exceed 50 µs.
        assert!(
            !printqueue.triggers_fired.is_empty(),
            "no data-plane trigger fired"
        );
        let est = printqueue.analysis_mut().query_special(0, None);
        assert!(est.is_some(), "special checkpoint not queryable");
    }

    #[test]
    fn queue_monitor_sees_buildup() {
        let tw = TimeWindowConfig::new(6, 1, 8, 3);
        // Poll every 50 µs so a checkpoint lands mid-drain (the burst is
        // fully drained by ~120 µs; the default per-set-period poll of
        // ~115 µs would only see an empty queue).
        let mut config = PrintQueueConfig::single_port(tw, 64);
        config.control.poll_period = 50u64.micros();
        let mut printqueue = PrintQueue::new(config);
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 100_000));
        {
            let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut printqueue];
            // A burst that builds a deep queue quickly (100 MTU packets in
            // 1 µs; drain takes 1.2 ns/B × 150 KB ≈ 120 µs).
            sw.run(arrivals(100, 1500, 10), &mut hooks, 50u64.micros());
        }
        let qm = printqueue
            .analysis()
            .query_queue_monitor(0, 50u64.micros())
            .expect("checkpoint exists");
        let culprits = qm.original_culprits();
        // At 50 µs roughly 58 packets (× 19 cells) are still queued; the
        // buildup chain below that level must survive.
        assert!(
            culprits.len() > 30,
            "expected a deep original-cause chain, got {}",
            culprits.len()
        );
    }
}
