//! The switch event loop against a reference model.
//!
//! `reference` is the event loop `pq-switch` shipped before its per-packet
//! path was rebuilt — a `Peekable` arrival stream merged with a binary-heap
//! calendar through `Option` minima, boxed schedulers, packets moved by
//! value, an `f64` divide per transmission — kept here, verbatim in logic,
//! as the oracle. Seeded streams drive both; the full ordered hook log and
//! every `PortStats` must agree. Timestamps, transmission times and tick
//! periods are all multiples of one quantum, so arrivals, completions and
//! ticks collide at the same nanosecond and the tie order is exercised on
//! nearly every step.

use printqueue::packet::{FlowId, Nanos, PacketMeta, SimPacket};
use printqueue::switch::{
    Arrival, PortConfig, PortStats, QueueHooks, SchedulerKind, Switch, SwitchConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod reference {
    use printqueue::packet::time::tx_delay_ns;
    use printqueue::packet::{Nanos, SimPacket};
    use printqueue::switch::{
        Arrival, PortConfig, PortStats, QueueHooks, SchedulerKind, SwitchConfig,
    };
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, VecDeque};

    trait Scheduler {
        fn enqueue(&mut self, pkt: SimPacket);
        fn dequeue(&mut self) -> Option<SimPacket>;
        fn len(&self) -> usize;
        fn is_empty(&self) -> bool {
            self.len() == 0
        }
        fn num_queues(&self) -> u8 {
            1
        }
        fn queue_for(&self, _pkt: &SimPacket) -> u8 {
            0
        }
    }

    fn build(kind: SchedulerKind) -> Box<dyn Scheduler> {
        match kind {
            SchedulerKind::Fifo => Box::new(Fifo(VecDeque::new())),
            SchedulerKind::StrictPriority { queues } => {
                Box::new(StrictPriority(new_queues(queues.max(1))))
            }
            SchedulerKind::Drr { queues, quantum } => Box::new(Drr {
                queues: new_queues(queues.max(1)),
                deficits: vec![0; usize::from(queues.max(1))],
                quantum: quantum.max(1),
                current: 0,
            }),
        }
    }

    fn new_queues(n: u8) -> Vec<VecDeque<SimPacket>> {
        (0..n).map(|_| VecDeque::new()).collect()
    }

    fn clamp_queue(queues: &[VecDeque<SimPacket>], priority: u8) -> usize {
        usize::from(priority).min(queues.len() - 1)
    }

    struct Fifo(VecDeque<SimPacket>);

    impl Scheduler for Fifo {
        fn enqueue(&mut self, pkt: SimPacket) {
            self.0.push_back(pkt);
        }
        fn dequeue(&mut self) -> Option<SimPacket> {
            self.0.pop_front()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    struct StrictPriority(Vec<VecDeque<SimPacket>>);

    impl Scheduler for StrictPriority {
        fn enqueue(&mut self, pkt: SimPacket) {
            let q = clamp_queue(&self.0, pkt.priority);
            self.0[q].push_back(pkt);
        }
        fn dequeue(&mut self) -> Option<SimPacket> {
            self.0.iter_mut().find_map(|q| q.pop_front())
        }
        fn len(&self) -> usize {
            self.0.iter().map(VecDeque::len).sum()
        }
        fn num_queues(&self) -> u8 {
            self.0.len() as u8
        }
        fn queue_for(&self, pkt: &SimPacket) -> u8 {
            clamp_queue(&self.0, pkt.priority) as u8
        }
    }

    struct Drr {
        queues: Vec<VecDeque<SimPacket>>,
        deficits: Vec<u64>,
        quantum: u32,
        current: usize,
    }

    impl Scheduler for Drr {
        fn enqueue(&mut self, pkt: SimPacket) {
            let q = clamp_queue(&self.queues, pkt.priority);
            self.queues[q].push_back(pkt);
        }
        fn dequeue(&mut self) -> Option<SimPacket> {
            if self.len() == 0 {
                return None;
            }
            loop {
                let q = self.current;
                if let Some(head) = self.queues[q].front() {
                    if self.deficits[q] >= u64::from(head.len) {
                        self.deficits[q] -= u64::from(head.len);
                        let pkt = self.queues[q].pop_front();
                        if self.queues[q].is_empty() {
                            self.deficits[q] = 0;
                            self.current = (q + 1) % self.queues.len();
                        }
                        return pkt;
                    }
                    self.deficits[q] += u64::from(self.quantum);
                }
                self.current = (q + 1) % self.queues.len();
            }
        }
        fn len(&self) -> usize {
            self.queues.iter().map(VecDeque::len).sum()
        }
        fn num_queues(&self) -> u8 {
            self.queues.len() as u8
        }
        fn queue_for(&self, pkt: &SimPacket) -> u8 {
            clamp_queue(&self.queues, pkt.priority) as u8
        }
    }

    enum EnqueueOutcome {
        Stored { depth_after: u32 },
        Dropped,
    }

    struct Port {
        config: PortConfig,
        scheduler: Box<dyn Scheduler>,
        depth_cells: u32,
        queue_depths: Vec<u32>,
        transmitting: bool,
        stats: PortStats,
    }

    impl Port {
        fn new(config: PortConfig) -> Port {
            let scheduler = build(config.scheduler);
            let queue_depths = vec![0; usize::from(scheduler.num_queues())];
            Port {
                scheduler,
                config,
                depth_cells: 0,
                queue_depths,
                transmitting: false,
                stats: PortStats::default(),
            }
        }

        fn enqueue(&mut self, pkt: &mut SimPacket, cell_bytes: u32, now: Nanos) -> EnqueueOutcome {
            let cells = pkt.len.div_ceil(cell_bytes);
            if self.depth_cells + cells > self.config.max_depth_cells {
                self.stats.dropped += 1;
                return EnqueueOutcome::Dropped;
            }
            self.depth_cells += cells;
            self.stats.enqueued += 1;
            self.stats.max_depth_cells = self.stats.max_depth_cells.max(self.depth_cells);
            let queue = self.scheduler.queue_for(pkt);
            self.queue_depths[usize::from(queue)] += cells;
            pkt.meta.enq_timestamp = now;
            pkt.meta.enq_qdepth = self.queue_depths[usize::from(queue)];
            pkt.meta.queue = queue;
            self.scheduler.enqueue(*pkt);
            EnqueueOutcome::Stored {
                depth_after: self.queue_depths[usize::from(queue)],
            }
        }

        fn can_start_tx(&self) -> bool {
            !self.transmitting && !self.scheduler.is_empty()
        }

        fn start_tx(&mut self, cell_bytes: u32, now: Nanos) -> Option<(SimPacket, Nanos)> {
            if self.transmitting {
                return None;
            }
            let mut pkt = self.scheduler.dequeue()?;
            let cells = pkt.len.div_ceil(cell_bytes);
            self.depth_cells -= cells;
            self.queue_depths[usize::from(pkt.meta.queue)] -= cells;
            pkt.meta.deq_timedelta = (now - pkt.meta.enq_timestamp) as u32;
            self.stats.dequeued += 1;
            self.stats.tx_bytes += u64::from(pkt.len);
            self.stats.total_queue_delay += Nanos::from(pkt.meta.deq_timedelta);
            self.transmitting = true;
            let done_at = now + tx_delay_ns(pkt.len, self.config.rate_gbps);
            Some((pkt, done_at))
        }
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    struct Scheduled {
        at: Nanos,
        seq: u64,
        port: u16,
    }

    impl Ord for Scheduled {
        fn cmp(&self, other: &Self) -> Ordering {
            // Max-heap inverted: earliest time, then earliest scheduled, on top.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    impl PartialOrd for Scheduled {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    #[derive(Default)]
    struct Calendar {
        heap: BinaryHeap<Scheduled>,
        next_seq: u64,
    }

    impl Calendar {
        fn schedule(&mut self, at: Nanos, port: u16) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { at, seq, port });
        }
        fn peek_time(&self) -> Option<Nanos> {
            self.heap.peek().map(|s| s.at)
        }
        fn pop(&mut self) -> Option<(Nanos, u16)> {
            self.heap.pop().map(|s| (s.at, s.port))
        }
    }

    pub struct Switch {
        cell_bytes: u32,
        ports: Vec<Port>,
        calendar: Calendar,
        now: Nanos,
        next_seqno: u64,
    }

    impl Switch {
        pub fn new(config: SwitchConfig) -> Switch {
            Switch {
                ports: config.ports.iter().map(|p| Port::new(*p)).collect(),
                cell_bytes: config.cell_bytes,
                calendar: Calendar::default(),
                now: 0,
                next_seqno: 0,
            }
        }

        pub fn now(&self) -> Nanos {
            self.now
        }

        pub fn port_stats(&self, port: u16) -> &PortStats {
            &self.ports[usize::from(port)].stats
        }

        pub fn port_depth_cells(&self, port: u16) -> u32 {
            self.ports[usize::from(port)].depth_cells
        }

        pub fn inject(&mut self, arrival: Arrival, hooks: &mut [&mut dyn QueueHooks]) {
            self.now = arrival.pkt.arrival;
            self.handle_arrival(arrival, hooks);
        }

        fn handle_arrival(&mut self, arrival: Arrival, hooks: &mut [&mut dyn QueueHooks]) {
            let Arrival { mut pkt, port } = arrival;
            pkt.seqno = self.next_seqno;
            self.next_seqno += 1;
            pkt.meta.egress_port = port;
            let p = &mut self.ports[usize::from(port)];
            match p.enqueue(&mut pkt, self.cell_bytes, self.now) {
                EnqueueOutcome::Stored { depth_after } => {
                    for hook in hooks.iter_mut() {
                        hook.on_enqueue(&pkt, port, depth_after, self.now);
                    }
                    self.maybe_start_tx(port, hooks);
                }
                EnqueueOutcome::Dropped => {
                    for hook in hooks.iter_mut() {
                        hook.on_drop(&pkt, port, self.now);
                    }
                }
            }
        }

        fn maybe_start_tx(&mut self, port: u16, hooks: &mut [&mut dyn QueueHooks]) {
            let p = &mut self.ports[usize::from(port)];
            if !p.can_start_tx() {
                return;
            }
            if let Some((pkt, done_at)) = p.start_tx(self.cell_bytes, self.now) {
                let depth_after = p.queue_depths[usize::from(pkt.meta.queue)];
                for hook in hooks.iter_mut() {
                    hook.on_dequeue(&pkt, port, depth_after, self.now);
                }
                self.calendar.schedule(done_at, port);
            }
        }

        fn handle_tx_complete(&mut self, port: u16, hooks: &mut [&mut dyn QueueHooks]) {
            self.ports[usize::from(port)].transmitting = false;
            self.maybe_start_tx(port, hooks);
        }

        pub fn drain_until(&mut self, until: Nanos, hooks: &mut [&mut dyn QueueHooks]) {
            while let Some(t) = self.calendar.peek_time() {
                if t > until {
                    break;
                }
                let (t, port) = self.calendar.pop().expect("peeked event vanished");
                self.now = t;
                self.handle_tx_complete(port, hooks);
            }
            self.now = self.now.max(until);
        }

        pub fn run<I>(&mut self, arrivals: I, hooks: &mut [&mut dyn QueueHooks], tick_period: Nanos)
        where
            I: IntoIterator<Item = Arrival>,
        {
            let mut arrivals = arrivals.into_iter().peekable();
            let mut next_tick = if tick_period == 0 {
                Nanos::MAX
            } else {
                self.now + tick_period
            };

            loop {
                let next_arrival = arrivals.peek().map(|a| a.pkt.arrival);
                let next_event = self.calendar.peek_time();
                let Some(work_t) = [next_arrival, next_event].into_iter().flatten().min() else {
                    if tick_period != 0 {
                        self.now = self.now.max(next_tick);
                        for hook in hooks.iter_mut() {
                            hook.on_tick(self.now);
                        }
                    }
                    break;
                };
                let t = work_t.min(next_tick);

                if next_tick <= t {
                    self.now = self.now.max(next_tick);
                    for hook in hooks.iter_mut() {
                        hook.on_tick(self.now);
                    }
                    next_tick += tick_period;
                    continue;
                }
                if next_event == Some(t) {
                    let (et, port) = self.calendar.pop().expect("peeked event vanished");
                    self.now = et;
                    self.handle_tx_complete(port, hooks);
                    continue;
                }
                let arrival = arrivals.next().expect("peeked arrival vanished");
                self.now = arrival.pkt.arrival;
                self.handle_arrival(arrival, hooks);
            }
        }
    }
}

/// One hook call, with everything the switch passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Enqueue {
        port: u16,
        seqno: u64,
        depth_after: u32,
        now: Nanos,
        meta: PacketMeta,
    },
    Dequeue {
        port: u16,
        seqno: u64,
        depth_after: u32,
        now: Nanos,
        meta: PacketMeta,
    },
    Drop {
        port: u16,
        seqno: u64,
        now: Nanos,
        meta: PacketMeta,
    },
    Tick {
        now: Nanos,
    },
}

#[derive(Default)]
struct Log(Vec<Call>);

impl QueueHooks for Log {
    fn on_enqueue(&mut self, pkt: &SimPacket, port: u16, depth_after: u32, now: Nanos) {
        self.0.push(Call::Enqueue {
            port,
            seqno: pkt.seqno,
            depth_after,
            now,
            meta: pkt.meta,
        });
    }

    fn on_dequeue(&mut self, pkt: &SimPacket, port: u16, depth_after: u32, now: Nanos) {
        self.0.push(Call::Dequeue {
            port,
            seqno: pkt.seqno,
            depth_after,
            now,
            meta: pkt.meta,
        });
    }

    fn on_drop(&mut self, pkt: &SimPacket, port: u16, now: Nanos) {
        self.0.push(Call::Drop {
            port,
            seqno: pkt.seqno,
            now,
            meta: pkt.meta,
        });
    }

    fn on_tick(&mut self, now: Nanos) {
        self.0.push(Call::Tick { now });
    }
}

/// Every timestamp, transmission time and tick period is a multiple of
/// this: 80 B at 10 Gbps.
const QUANTUM: Nanos = 64;

/// Line rates at which a multiple of 80 B serializes in a multiple of
/// [`QUANTUM`].
const RATES_GBPS: [f64; 4] = [1.0, 2.5, 5.0, 10.0];

/// Mostly multiples of 80 B (transmission times on the quantum grid), plus
/// lengths that are not, a zero-length packet (zero cells, zero
/// transmission time: its completion collides with its own dequeue) and one
/// past any jumbo frame.
const LENGTHS: [u32; 10] = [80, 80, 160, 240, 800, 1600, 0, 64, 1500, 12_000];

struct Case {
    config: SwitchConfig,
    arrivals: Vec<Arrival>,
    tick_period: Nanos,
}

fn case(seed: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_ports = rng.gen_range(1..=8u16);
    let ports = (0..n_ports)
        .map(|_| PortConfig {
            rate_gbps: RATES_GBPS[rng.gen_range(0..RATES_GBPS.len())],
            // A few packets' worth, so bursts tail-drop.
            max_depth_cells: rng.gen_range(5..=120),
            scheduler: match rng.gen_range(0..3) {
                0 => SchedulerKind::Fifo,
                1 => SchedulerKind::StrictPriority {
                    queues: rng.gen_range(1..=4),
                },
                _ => SchedulerKind::Drr {
                    queues: rng.gen_range(1..=3),
                    quantum: [64, 500, 1500][rng.gen_range(0..3usize)],
                },
            },
        })
        .collect();
    let config = SwitchConfig {
        ports,
        cell_bytes: [64, 80, 128][rng.gen_range(0..3usize)],
    };
    let mut t = 0;
    let arrivals = (0..rng.gen_range(50..=400u32))
        .map(|i| {
            // Half the packets arrive at the same nanosecond as the last.
            t += QUANTUM * rng.gen_range(0..=2) * rng.gen_range(0..=1);
            let len = LENGTHS[rng.gen_range(0..LENGTHS.len())];
            let pkt = SimPacket::new(FlowId(i % 7), len, t).with_priority(rng.gen_range(0..5));
            Arrival::new(pkt, rng.gen_range(0..n_ports))
        })
        .collect();
    let tick_period = match rng.gen_range(0..3) {
        0 => 0,
        _ => QUANTUM * rng.gen_range(1..=40),
    };
    Case {
        config,
        arrivals,
        tick_period,
    }
}

/// What a drive of either switch leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    log: Vec<Call>,
    stats: Vec<PortStats>,
    depths: Vec<u32>,
    now: Nanos,
}

/// Drive `$switch` (either implementation: same method names, no shared
/// trait) over `$case` in `$mode` and collect its [`Outcome`].
macro_rules! drive {
    ($switch:expr, $case:expr, $mode:expr) => {{
        let mut sw = $switch;
        let case: &Case = $case;
        let mut log = Log::default();
        {
            let hooks: &mut [&mut dyn QueueHooks] = &mut [&mut log];
            match $mode {
                Mode::Run => sw.run(case.arrivals.iter().copied(), hooks, case.tick_period),
                Mode::RunTwice => {
                    // The second run starts from the first's clock, queues
                    // and tick phase.
                    let (a, b) = case.arrivals.split_at(case.arrivals.len() / 2);
                    sw.run(a.iter().copied(), hooks, case.tick_period);
                    let resume = sw.now();
                    sw.run(
                        b.iter().copied().map(|mut arrival| {
                            arrival.pkt.arrival += resume;
                            arrival
                        }),
                        hooks,
                        case.tick_period,
                    );
                }
                Mode::InjectDrain => {
                    // The closed-loop senders' driving: settle up to each
                    // arrival's instant, then inject it there.
                    for arrival in &case.arrivals {
                        sw.drain_until(arrival.pkt.arrival, hooks);
                        sw.inject(*arrival, hooks);
                    }
                    sw.drain_until(sw.now() + 3 * QUANTUM, hooks);
                    sw.drain_until(Nanos::MAX, hooks);
                    // A deadline behind the clock moves nothing.
                    sw.drain_until(0, hooks);
                }
            }
        }
        let ports = 0..case.config.ports.len() as u16;
        Outcome {
            log: log.0,
            stats: ports.clone().map(|p| *sw.port_stats(p)).collect(),
            depths: ports.map(|p| sw.port_depth_cells(p)).collect(),
            now: sw.now(),
        }
    }};
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Run,
    RunTwice,
    InjectDrain,
}

#[test]
fn event_loop_matches_the_reference_model() {
    let (mut drops, mut ties, mut ticks) = (0u64, 0u64, 0u64);
    for seed in 0..600u64 {
        let case = case(seed);
        for mode in [Mode::Run, Mode::RunTwice, Mode::InjectDrain] {
            let expected = drive!(reference::Switch::new(case.config.clone()), &case, mode);
            let got = drive!(Switch::new(case.config.clone()), &case, mode);
            if let Some(i) = (0..expected.log.len().max(got.log.len()))
                .find(|&i| expected.log.get(i) != got.log.get(i))
            {
                panic!(
                    "seed {seed} {mode:?}: hook call {i} differs\n reference {:?}\n switch    {:?}",
                    expected.log.get(i),
                    got.log.get(i)
                );
            }
            assert_eq!(got, expected, "seed {seed} {mode:?}");

            // The streams must reach what the test is for.
            drops += expected.stats.iter().map(|s| s.dropped).sum::<u64>();
            let nows = |keep: fn(&Call) -> Option<Nanos>| -> Vec<Nanos> {
                expected.log.iter().filter_map(keep).collect()
            };
            let tick_times = nows(|c| match c {
                Call::Tick { now } => Some(*now),
                _ => None,
            });
            let dequeue_times = nows(|c| match c {
                Call::Dequeue { now, .. } => Some(*now),
                _ => None,
            });
            ticks += tick_times.len() as u64;
            ties += tick_times
                .iter()
                .filter(|t| dequeue_times.binary_search(t).is_ok())
                .count() as u64;
        }
    }
    assert!(drops > 1_000, "streams barely tail-drop: {drops}");
    assert!(ticks > 1_000, "streams barely tick: {ticks}");
    assert!(ties > 1_000, "ticks barely collide with dequeues: {ties}");
}
