//! Shared experiment runner: wire a workload, the switch, PrintQueue, and
//! the baselines together and collect everything the figures need.

use pq_baselines::{FlowRadar, HashPipe, ProratedQuerier};
use pq_core::culprits::GroundTruth;
use pq_core::faults::FaultConfig;
use pq_core::params::TimeWindowConfig;
use pq_core::printqueue::{DataPlaneTrigger, PrintQueue, PrintQueueConfig};
use pq_packet::{FlowKey, Nanos, SimPacket};
use pq_switch::{QueueHooks, Switch, SwitchConfig, TelemetrySink};
use pq_trace::workload::GeneratedTrace;

/// Runs HashPipe and FlowRadar side-by-side with PrintQueue, resetting both
/// at a fixed period (the paper sets it to PrintQueue's set period) and
/// accumulating per-period counts for prorated queries.
pub struct BaselineHook {
    pub hashpipe: HashPipe,
    pub flowradar: FlowRadar,
    pub hp_periods: ProratedQuerier,
    pub fr_periods: ProratedQuerier,
    /// FlowId → tuple, for the hash functions.
    keys: Vec<FlowKey>,
    period: Nanos,
    period_start: Nanos,
}

impl BaselineHook {
    /// Paper-parity baselines (4096 × 5 stages) resetting every `period`.
    pub fn paper_parity(keys: Vec<FlowKey>, period: Nanos) -> BaselineHook {
        BaselineHook {
            hashpipe: HashPipe::new(5, 4096),
            flowradar: FlowRadar::paper_parity(),
            hp_periods: ProratedQuerier::new(),
            fr_periods: ProratedQuerier::new(),
            keys,
            period,
            period_start: 0,
        }
    }

    fn rollover(&mut self, now: Nanos) {
        if now < self.period_start + self.period {
            return;
        }
        self.hp_periods
            .push_period(self.period_start, now, self.hashpipe.counts());
        self.fr_periods
            .push_period(self.period_start, now, self.flowradar.decode());
        self.hashpipe.reset();
        self.flowradar.reset();
        self.period_start = now;
    }

    /// Flush the final partial period (call after the run).
    pub fn finish(&mut self, now: Nanos) {
        if now > self.period_start {
            self.hp_periods
                .push_period(self.period_start, now, self.hashpipe.counts());
            self.fr_periods
                .push_period(self.period_start, now, self.flowradar.decode());
            self.period_start = now;
        }
    }
}

impl QueueHooks for BaselineHook {
    fn on_dequeue(&mut self, pkt: &SimPacket, _port: u16, _depth_after: u32, _now: Nanos) {
        let key = self.keys[pkt.flow.0 as usize];
        self.hashpipe.record(pkt.flow, &key);
        self.flowradar.record(pkt.flow, &key);
    }

    fn on_tick(&mut self, now: Nanos) {
        self.rollover(now);
    }
}

/// One experiment run's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// PrintQueue itself: time windows, polling, queue monitor, trigger
    /// and fault injection.
    pub pq: PrintQueueConfig,
    /// Egress port rate in Gbps.
    pub port_rate_gbps: f64,
    /// Tail-drop threshold in cells.
    pub max_depth_cells: u32,
    /// Attach the baselines?
    pub with_baselines: bool,
}

impl RunConfig {
    /// Defaults matching the paper's testbed: 10 Gbps bottleneck, deep
    /// buffer, min-packet delay of the workload's packet floor, and
    /// PrintQueue polling once per set period.
    pub fn new(tw: TimeWindowConfig, min_pkt_tx_delay: Nanos) -> RunConfig {
        RunConfig {
            pq: PrintQueueConfig::single_port(tw, min_pkt_tx_delay),
            port_rate_gbps: 10.0,
            max_depth_cells: 32_768,
            with_baselines: false,
        }
    }

    /// Enable the baseline hooks.
    pub fn with_baselines(mut self) -> RunConfig {
        self.with_baselines = true;
        self
    }

    /// Install a data-plane trigger.
    pub fn with_trigger(mut self, trigger: DataPlaneTrigger) -> RunConfig {
        self.pq = self.pq.with_trigger(trigger);
        self
    }

    /// Inject control-plane faults during the run.
    pub fn with_faults(mut self, faults: FaultConfig) -> RunConfig {
        self.pq = self.pq.with_faults(faults);
        self
    }
}

/// Everything a figure needs after a run.
pub struct RunOutput {
    /// PrintQueue with its checkpoints (query through `analysis_mut`).
    pub printqueue: PrintQueue,
    /// Baselines, when enabled.
    pub baselines: Option<BaselineHook>,
    /// Ground-truth oracle built from the telemetry records.
    pub truth: GroundTruth,
    /// Raw drop count.
    pub drops: u64,
    /// The end-of-run simulation time.
    pub end_time: Nanos,
    /// Packets transmitted.
    pub transmitted: u64,
}

/// Run `trace` through a single-port switch with PrintQueue (and optionally
/// the baselines) attached.
pub fn run(config: &RunConfig, trace: &GeneratedTrace) -> RunOutput {
    // The switch tick drives both the analysis program's polling and the
    // baselines' resets.
    let pq = &config.pq;
    let set_period = pq.control.poll_period.min(pq.time_windows.set_period());
    let mut printqueue = PrintQueue::new(pq.clone());
    let mut sink = TelemetrySink::new();
    let mut baselines = config.with_baselines.then(|| {
        let keys: Vec<FlowKey> = trace.flows.iter().map(|(_, k)| *k).collect();
        BaselineHook::paper_parity(keys, set_period)
    });

    let mut sw = Switch::new(SwitchConfig::single_port(
        config.port_rate_gbps,
        config.max_depth_cells,
    ));
    {
        let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut printqueue, &mut sink];
        if let Some(b) = baselines.as_mut() {
            hooks.push(b);
        }
        sw.run(trace.arrivals.iter().copied(), &mut hooks, set_period);
    }
    let end_time = sw.now();
    if let Some(b) = baselines.as_mut() {
        b.finish(end_time);
    }
    let transmitted = sw.port_stats(0).dequeued;
    RunOutput {
        printqueue,
        baselines,
        truth: GroundTruth::new(&sink.records, 80),
        drops: sink.drops,
        end_time,
        transmitted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_packet::NanosExt;
    use pq_trace::workload::{Workload, WorkloadKind};

    fn small_trace() -> GeneratedTrace {
        Workload {
            kind: WorkloadKind::Ws,
            duration: 5u64.millis(),
            load: 1.2,
            port: 0,
            port_rate_gbps: 10.0,
            sender_rate_gbps: 40.0,
            min_flow_rate_gbps: 0.5,
            warmup: 5u64.millis(),
            seed: 3,
        }
        .generate()
    }

    #[test]
    fn run_produces_ground_truth_and_checkpoints() {
        let trace = small_trace();
        let config = RunConfig::new(TimeWindowConfig::WS_DM, 1200).with_baselines();
        let out = run(&config, &trace);
        assert!(out.transmitted > 100, "transmitted {}", out.transmitted);
        assert!(!out.printqueue.analysis().checkpoints(0).is_empty());
        let baselines = out.baselines.expect("baselines attached");
        assert!(!baselines.hp_periods.is_empty());
        assert!(!baselines.fr_periods.is_empty());
        assert_eq!(out.truth.records().len() as u64, out.transmitted);
    }
}
