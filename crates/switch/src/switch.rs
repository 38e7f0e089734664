//! The switch: event loop tying arrivals, ports, and hooks together.

use crate::event::Calendar;
use crate::hooks::QueueHooks;
use crate::stats::PortStats;
use crate::telemetry::SwitchTelemetry;
use crate::tm::{EnqueueOutcome, Port};
use pq_packet::{Nanos, SimPacket};
use pq_telemetry::{names, Telemetry};

pub use crate::tm::PortConfig;

/// A packet arriving at the switch, already routed to an egress port by the
/// ingress pipeline (the trace generator plays the role of ingress routing;
/// see `pq_packet::packet::parse_frame` for the byte-level parser used in
/// examples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// The packet descriptor; `pkt.arrival` is its arrival time.
    pub pkt: SimPacket,
    /// Destination egress port index.
    pub port: u16,
}

impl Arrival {
    /// Convenience constructor.
    pub fn new(pkt: SimPacket, port: u16) -> Arrival {
        Arrival { pkt, port }
    }
}

/// Whole-switch configuration.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// One entry per egress port.
    pub ports: Vec<PortConfig>,
    /// Buffer allocation granularity in bytes (80 B on Tofino).
    pub cell_bytes: u32,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            ports: vec![PortConfig::default()],
            cell_bytes: 80,
        }
    }
}

impl SwitchConfig {
    /// A single-port switch at `rate_gbps` with the given buffer depth.
    pub fn single_port(rate_gbps: f64, max_depth_cells: u32) -> SwitchConfig {
        SwitchConfig {
            ports: vec![PortConfig {
                rate_gbps,
                max_depth_cells,
                ..PortConfig::default()
            }],
            cell_bytes: 80,
        }
    }
}

/// The simulated switch.
///
/// Drive it with [`Switch::run`], which consumes a time-sorted arrival
/// stream and invokes the supplied hooks at every queue transition. Hooks
/// are passed per-run (rather than owned) so callers keep full access to
/// their data-plane programs and sinks afterwards.
pub struct Switch {
    ports: Vec<Port>,
    calendar: Calendar,
    now: Nanos,
    next_seqno: u64,
    telemetry: Option<SwitchTelemetry>,
}

impl Switch {
    /// Build a switch from its configuration.
    pub fn new(config: SwitchConfig) -> Switch {
        let ports = config
            .ports
            .iter()
            .map(|p| Port::new(*p, config.cell_bytes))
            .collect();
        Switch {
            ports,
            calendar: Calendar::new(),
            now: 0,
            next_seqno: 0,
            telemetry: None,
        }
    }

    /// Attach a telemetry plane: per-port counters, the residence
    /// histogram, and (when tracing is enabled on the plane)
    /// enqueue→dequeue residence spans. Metric handles are resolved here,
    /// once; counts accumulated before attachment are carried over so
    /// registry totals always match [`PortStats`].
    pub fn set_telemetry(&mut self, plane: &Telemetry) {
        let tel = SwitchTelemetry::new(plane, self.ports.len());
        for (i, port) in self.ports.iter().enumerate() {
            tel.seed(i, &port.stats);
        }
        self.telemetry = Some(tel);
    }

    /// Current simulation time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Counters for one port.
    pub fn port_stats(&self, port: u16) -> &PortStats {
        &self.ports[usize::from(port)].stats
    }

    /// Current queue depth of one port, in buffer cells.
    pub fn port_depth_cells(&self, port: u16) -> u32 {
        self.ports[usize::from(port)].depth_cells()
    }

    /// Inject one packet at the current simulation time (used by
    /// fine-grained tests; `run` is the usual driver).
    pub fn inject(&mut self, mut arrival: Arrival, hooks: &mut [&mut dyn QueueHooks]) {
        debug_assert!(arrival.pkt.arrival >= self.now, "arrival in the past");
        self.now = arrival.pkt.arrival;
        self.admit(&mut arrival, hooks);
    }

    /// Offer `arrival` to its egress port at `self.now`. The packet is
    /// stamped where it lies — the caller's copy, which the hooks borrow —
    /// and copied once, into its queue slot.
    #[inline]
    fn admit(&mut self, arrival: &mut Arrival, hooks: &mut [&mut dyn QueueHooks]) {
        let (pkt, port) = (&mut arrival.pkt, arrival.port);
        pkt.seqno = self.next_seqno;
        self.next_seqno += 1;
        pkt.meta.egress_port = port;
        let p = &mut self.ports[usize::from(port)];
        match p.enqueue(pkt, self.now) {
            EnqueueOutcome::Stored { depth_after } => {
                if let Some(tel) = &self.telemetry {
                    let inst = &tel.ports[usize::from(port)];
                    inst.enqueued.inc();
                    inst.max_depth_cells.set_max(u64::from(p.depth_cells()));
                }
                for hook in hooks.iter_mut() {
                    hook.on_enqueue(pkt, port, depth_after, self.now);
                }
                // A standing queue means the serializer is mid-packet; only
                // on an idle port does the packet go straight out.
                if !p.transmitting() {
                    self.maybe_start_tx(port, hooks);
                }
            }
            EnqueueOutcome::Dropped => {
                if let Some(tel) = &self.telemetry {
                    tel.ports[usize::from(port)].dropped.inc();
                }
                for hook in hooks.iter_mut() {
                    hook.on_drop(pkt, port, self.now);
                }
            }
        }
    }

    /// Start `port`'s next transmission if its serializer is idle and a
    /// packet is queued, and schedule its completion.
    #[inline]
    fn maybe_start_tx(&mut self, port: u16, hooks: &mut [&mut dyn QueueHooks]) {
        let (now, telemetry) = (self.now, &self.telemetry);
        // Hooks observe the departing packet's own queue (equals the port
        // depth on FIFO ports).
        let egress = |pkt: &SimPacket, depth_after: u32| {
            if let Some(tel) = telemetry {
                let inst = &tel.ports[usize::from(port)];
                inst.dequeued.inc();
                inst.tx_bytes.add(u64::from(pkt.len));
                inst.residence_ns.record(u64::from(pkt.meta.deq_timedelta));
                if tel.plane.tracing_enabled() {
                    tel.plane.spans().record(
                        names::SPAN_RESIDENCE,
                        pkt.meta.enq_timestamp,
                        pkt.meta.deq_timestamp(),
                        u32::from(port),
                    );
                }
            }
            for hook in hooks.iter_mut() {
                hook.on_dequeue(pkt, port, depth_after, now);
            }
        };
        if let Some(done_at) = self.ports[usize::from(port)].start_tx(now, egress) {
            self.calendar.schedule(done_at, port);
        }
    }

    /// The control-plane tick due at `at`.
    fn tick(&mut self, at: Nanos, hooks: &mut [&mut dyn QueueHooks]) {
        self.now = self.now.max(at);
        for hook in hooks.iter_mut() {
            hook.on_tick(self.now);
        }
    }

    /// Fire, in time order, every tick and transmission completion due no
    /// later than `until`, an instant at which work is known to be pending
    /// (an arrival, a completion, or the caller's own deadline). At equal
    /// times a tick fires before a completion, and both before whatever
    /// the caller does at `until`. Ticks exist only to service pending
    /// work, so none fires past `until`; `tick_period` 0 means none at all.
    #[inline]
    fn settle(
        &mut self,
        until: Nanos,
        next_tick: &mut Nanos,
        tick_period: Nanos,
        hooks: &mut [&mut dyn QueueHooks],
    ) {
        loop {
            let completion = self.calendar.peek_time().filter(|&t| t <= until);
            if tick_period != 0 && *next_tick <= completion.unwrap_or(until) {
                self.tick(*next_tick, hooks);
                *next_tick += tick_period;
                continue;
            }
            if completion.is_none() {
                return;
            }
            let (t, port) = self.calendar.pop().expect("peeked completion vanished");
            self.now = t;
            self.ports[usize::from(port)].tx_complete();
            self.maybe_start_tx(port, hooks);
        }
    }

    /// Process all pending internal events up to and including `until`,
    /// advancing the clock. Used to drain queues after the arrival stream
    /// ends.
    pub fn drain_until(&mut self, until: Nanos, hooks: &mut [&mut dyn QueueHooks]) {
        self.settle(until, &mut 0, 0, hooks);
        self.now = self.now.max(until);
    }

    /// Run the switch over a time-sorted arrival stream.
    ///
    /// * `arrivals` — packets in non-decreasing `pkt.arrival` order.
    /// * `hooks` — data-plane programs and sinks to notify.
    /// * `tick_period` — if non-zero, every hook receives
    ///   [`QueueHooks::on_tick`] each period of simulated time (the
    ///   control-plane poll loop).
    ///
    /// After the last arrival the switch drains every queue to completion.
    /// Ties are resolved as real hardware would: a transmission completing
    /// at time *t* frees the serializer before an arrival at *t* is
    /// processed, so the arrival sees the queue state after departures at
    /// *t*; a tick due at *t* fires before either.
    pub fn run<I>(&mut self, arrivals: I, hooks: &mut [&mut dyn QueueHooks], tick_period: Nanos)
    where
        I: IntoIterator<Item = Arrival>,
    {
        // One scope per run, not per packet: the guard is a single
        // relaxed load when profiling is off, but a per-packet guard
        // would still dominate the few tens of nanoseconds a packet
        // spends in this loop when on.
        pq_prof::scope!("switch/run");
        let mut next_tick = self.now + tick_period;
        for mut arrival in arrivals {
            self.settle(arrival.pkt.arrival, &mut next_tick, tick_period, hooks);
            self.now = arrival.pkt.arrival;
            self.admit(&mut arrival, hooks);
        }
        while let Some(t) = self.calendar.peek_time() {
            self.settle(t, &mut next_tick, tick_period, hooks);
        }
        // Once arrivals and completions are exhausted the run ends; a
        // final tick fires so control planes see the closing state.
        if tick_period != 0 {
            self.tick(next_tick, hooks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::TelemetrySink;
    use crate::scheduler::SchedulerKind;
    use pq_packet::FlowId;

    fn arrivals_back_to_back(n: u64, len: u32, gap: Nanos) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival::new(SimPacket::new(FlowId(i as u32 % 4), len, i * gap), 0))
            .collect()
    }

    #[test]
    fn uncongested_packets_see_empty_queue() {
        // 1500 B at 10 Gbps takes 1200 ns; arrivals every 2000 ns never queue.
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 1000));
        let mut sink = TelemetrySink::new();
        sw.run(arrivals_back_to_back(10, 1500, 2000), &mut [&mut sink], 0);
        assert_eq!(sink.records.len(), 10);
        for r in &sink.records {
            assert_eq!(r.meta.deq_timedelta, 0, "packet queued unexpectedly");
            // Depth at enqueue = its own 19 cells.
            assert_eq!(r.meta.enq_qdepth, 19);
        }
    }

    #[test]
    fn burst_builds_queue_and_delays_grow() {
        // All 10 packets arrive at t=0..9 ns; each takes 1200 ns to send.
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 1000));
        let mut sink = TelemetrySink::new();
        sw.run(arrivals_back_to_back(10, 1500, 1), &mut [&mut sink], 0);
        assert_eq!(sink.records.len(), 10);
        let deltas: Vec<u32> = sink.records.iter().map(|r| r.meta.deq_timedelta).collect();
        // FIFO: delays strictly increase across the burst.
        for w in deltas.windows(2) {
            assert!(w[1] > w[0], "delays not increasing: {deltas:?}");
        }
        // Last packet waited for ~9 transmissions.
        assert!(deltas[9] >= 9 * 1200 - 9);
    }

    #[test]
    fn taildrop_fires_when_buffer_full() {
        // Buffer of 19 cells fits exactly one 1500 B packet.
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 19));
        let mut sink = TelemetrySink::new();
        // Two packets at t=0 and t=1: the first dequeues immediately at t=0
        // (depth drops), so only one more can be admitted at t=1... but the
        // first *starts transmitting* at 0, leaving the queue empty, so the
        // second is admitted too. A third at t=2 while the second occupies
        // the whole buffer is dropped.
        let arrivals = vec![
            Arrival::new(SimPacket::new(FlowId(0), 1500, 0), 0),
            Arrival::new(SimPacket::new(FlowId(1), 1500, 1), 0),
            Arrival::new(SimPacket::new(FlowId(2), 1500, 2), 0),
        ];
        sw.run(arrivals, &mut [&mut sink], 0);
        assert_eq!(sink.drops, 1);
        assert_eq!(sink.records.len(), 2);
        assert_eq!(sw.port_stats(0).dropped, 1);
    }

    #[test]
    fn queue_fully_drains_after_run() {
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 10_000));
        let mut sink = TelemetrySink::new();
        sw.run(arrivals_back_to_back(100, 1500, 10), &mut [&mut sink], 0);
        assert_eq!(sink.records.len(), 100);
        assert_eq!(sw.port_depth_cells(0), 0);
        assert_eq!(sw.port_stats(0).dequeued, 100);
    }

    #[test]
    fn dequeue_order_is_timestamp_sorted_for_fifo() {
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 10_000));
        let mut sink = TelemetrySink::new();
        sw.run(arrivals_back_to_back(50, 800, 100), &mut [&mut sink], 0);
        let deqs: Vec<Nanos> = sink.records.iter().map(|r| r.deq_timestamp()).collect();
        let mut sorted = deqs.clone();
        sorted.sort_unstable();
        assert_eq!(deqs, sorted);
    }

    #[test]
    fn one_pending_completion_per_busy_port() {
        // The calendar is a list bounded by the port count because a port
        // schedules a completion only when it starts a transmission, and
        // starts one only with its serializer idle.
        let config = SwitchConfig {
            ports: vec![PortConfig::default(); 3],
            cell_bytes: 80,
        };
        let mut sw = Switch::new(config);
        let pending_matches_busy_ports = |sw: &Switch| {
            let busy = sw.ports.iter().filter(|p| p.transmitting()).count();
            assert_eq!(sw.calendar.len(), busy);
        };
        for i in 0..200u64 {
            // Bursts onto every port, then gaps long enough to go idle.
            let at = (i / 20) * 40_000 + (i % 20) * 100;
            sw.drain_until(at, &mut []);
            pending_matches_busy_ports(&sw);
            let pkt = SimPacket::new(FlowId(0), 1500, at);
            sw.inject(Arrival::new(pkt, (i % 3) as u16), &mut []);
            pending_matches_busy_ports(&sw);
        }
        sw.drain_until(Nanos::MAX, &mut []);
        assert!(sw.calendar.is_empty());
    }

    #[test]
    fn ticks_fire_at_period() {
        struct TickCounter {
            ticks: Vec<Nanos>,
        }
        impl QueueHooks for TickCounter {
            fn on_tick(&mut self, now: Nanos) {
                self.ticks.push(now);
            }
        }
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 1000));
        let mut counter = TickCounter { ticks: Vec::new() };
        let mut sink = TelemetrySink::new();
        // Arrivals spanning 10_000 ns, ticks every 2_500 ns.
        {
            let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut counter, &mut sink];
            sw.run(arrivals_back_to_back(6, 1500, 2000), &mut hooks, 2_500);
        }
        assert!(counter.ticks.starts_with(&[2_500, 5_000, 7_500, 10_000]));
    }

    #[test]
    fn telemetry_counters_mirror_port_stats() {
        let plane = Telemetry::new();
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 19));
        sw.set_telemetry(&plane);
        let mut sink = TelemetrySink::new();
        let arrivals = vec![
            Arrival::new(SimPacket::new(FlowId(0), 1500, 0), 0),
            Arrival::new(SimPacket::new(FlowId(1), 1500, 1), 0),
            Arrival::new(SimPacket::new(FlowId(2), 1500, 2), 0),
        ];
        sw.run(arrivals, &mut [&mut sink], 0);
        let stats = *sw.port_stats(0);
        let snap = plane.snapshot();
        let port = [("port", "0")];
        assert_eq!(
            snap.counter(names::SWITCH_ENQUEUED, &port),
            Some(stats.enqueued)
        );
        assert_eq!(
            snap.counter(names::SWITCH_DEQUEUED, &port),
            Some(stats.dequeued)
        );
        assert_eq!(
            snap.counter(names::SWITCH_DROPPED, &port),
            Some(stats.dropped)
        );
        assert_eq!(
            snap.counter(names::SWITCH_TX_BYTES, &port),
            Some(stats.tx_bytes)
        );
        let residence = snap.histogram(names::SWITCH_RESIDENCE_NS, &port).unwrap();
        assert_eq!(residence.count, stats.dequeued);
        assert_eq!(residence.sum, stats.total_queue_delay);
    }

    #[test]
    fn residence_spans_recorded_when_tracing() {
        let plane = Telemetry::new();
        plane.set_tracing(true);
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 10_000));
        sw.set_telemetry(&plane);
        let mut sink = TelemetrySink::new();
        sw.run(arrivals_back_to_back(5, 1500, 1), &mut [&mut sink], 0);
        let spans = plane.spans().snapshot();
        let residence: Vec<_> = spans
            .iter()
            .filter(|s| s.name == names::SPAN_RESIDENCE)
            .collect();
        assert_eq!(residence.len(), 5);
        for s in residence {
            assert!(s.end >= s.start);
        }
    }

    #[test]
    fn late_attach_seeds_existing_counts() {
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 10_000));
        let mut sink = TelemetrySink::new();
        sw.run(arrivals_back_to_back(10, 1500, 2000), &mut [&mut sink], 0);
        let plane = Telemetry::new();
        sw.set_telemetry(&plane);
        assert_eq!(
            plane
                .snapshot()
                .counter(names::SWITCH_ENQUEUED, &[("port", "0")]),
            Some(10)
        );
    }

    #[test]
    fn strict_priority_victim_waits() {
        // One low-priority packet enqueued behind a stream of high-priority
        // packets keeps losing the scheduling race — the Figure 1 scenario.
        let mut config = SwitchConfig::single_port(10.0, 100_000);
        config.ports[0].scheduler = SchedulerKind::StrictPriority { queues: 2 };
        let mut sw = Switch::new(config);
        let mut sink = TelemetrySink::new();
        // High-priority packets arriving every 600 ns keep the port busy
        // (each takes 1200 ns to serialize — 2x oversubscribed).
        let mut arrivals: Vec<Arrival> = (0..20u64)
            .map(|i| Arrival::new(SimPacket::new(FlowId(1), 1500, i * 600).with_priority(0), 0))
            .collect();
        // The victim arrives at t=100, while the first high-priority packet
        // is already serializing and more keep coming.
        arrivals.push(Arrival::new(
            SimPacket::new(FlowId(99), 1500, 100).with_priority(1),
            0,
        ));
        arrivals.sort_by_key(|a| a.pkt.arrival);
        sw.run(arrivals, &mut [&mut sink], 0);
        let victim = sink
            .records
            .iter()
            .find(|r| r.flow == FlowId(99))
            .expect("victim transmitted");
        // Every high-priority packet dequeues before the victim: the
        // high-priority queue never goes empty while the victim waits.
        let victim_deq = victim.deq_timestamp();
        let before_victim = sink
            .records
            .iter()
            .filter(|r| r.flow == FlowId(1) && r.deq_timestamp() < victim_deq)
            .count();
        assert_eq!(before_victim, 20, "victim was not starved");
        assert!(victim.meta.deq_timedelta > 20 * 1000);
    }
}
