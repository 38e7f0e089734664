//! Packet schedulers for egress ports.
//!
//! PrintQueue's definitions of direct/indirect culprits (§2 of the paper) are
//! "independent of the packet scheduling algorithm", and its time windows
//! index on dequeue timestamps only, so they work under non-FIFO policies.
//! To test that claim this crate provides three schedulers:
//!
//! * [`Fifo`] — single first-in-first-out queue (the default everywhere the
//!   paper's quantitative evaluation runs),
//! * [`StrictPriority`] — N FIFO queues, lowest queue index always wins; the
//!   motivating example of Figure 1 (a low-priority victim starved by
//!   high-priority traffic),
//! * [`Drr`] — deficit round-robin over N queues, a common data-center
//!   fair-queueing building block.

use pq_packet::SimPacket;
use std::collections::VecDeque;

/// Which scheduler an egress port runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// One FIFO queue.
    Fifo,
    /// `n` FIFO queues, queue 0 has absolute priority over queue 1, etc.
    /// Packets map to queues by their `priority` field (clamped to `n - 1`).
    StrictPriority { queues: u8 },
    /// Deficit round-robin over `queues` queues with per-round `quantum`
    /// bytes per queue.
    Drr { queues: u8, quantum: u32 },
}

impl SchedulerKind {
    /// Instantiate the scheduler state.
    pub fn build(self) -> Scheduler {
        let discipline = match self {
            SchedulerKind::Fifo => Discipline::Fifo(Fifo::new()),
            SchedulerKind::StrictPriority { queues } => {
                Discipline::StrictPriority(StrictPriority::new(queues.max(1)))
            }
            SchedulerKind::Drr { queues, quantum } => {
                Discipline::Drr(Drr::new(queues.max(1), quantum.max(1)))
            }
        };
        Scheduler { discipline, len: 0 }
    }
}

/// The queue discipline behind one egress port: one of the three above,
/// dispatched by `match` so the per-packet calls inline, plus the number of
/// packets it holds, so finding it empty (every completion on a lightly
/// loaded port) does not visit a multi-queue discipline's queues.
///
/// Depth accounting (cells, tail drop) lives in the traffic manager; the
/// scheduler only orders packets. Multi-queue disciplines additionally
/// expose which of their internal queues a packet maps to, so the traffic
/// manager can maintain per-queue depths (the paper tracks "multiple
/// queues ... individually", §5).
#[derive(Debug)]
pub struct Scheduler {
    discipline: Discipline,
    len: usize,
}

#[derive(Debug)]
enum Discipline {
    Fifo(Fifo),
    StrictPriority(StrictPriority),
    Drr(Drr),
}

impl Scheduler {
    /// Admit a packet.
    #[inline]
    pub fn enqueue(&mut self, pkt: SimPacket) {
        self.len += 1;
        match &mut self.discipline {
            Discipline::Fifo(s) => s.enqueue(pkt),
            Discipline::StrictPriority(s) => s.enqueue(pkt),
            Discipline::Drr(s) => s.enqueue(pkt),
        }
    }

    /// Select and remove the next packet to transmit.
    #[inline]
    pub fn dequeue(&mut self) -> Option<SimPacket> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // One `pop_front` after the match, not one per arm: the arms would
        // merge their `Option<SimPacket>`s through memory, a second copy.
        let queue = match &mut self.discipline {
            Discipline::Fifo(s) => &mut s.queue,
            Discipline::StrictPriority(s) => s.select()?,
            Discipline::Drr(s) => s.select()?,
        };
        queue.pop_front()
    }

    /// Total queued packets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of internal queues (1 for FIFO).
    pub fn num_queues(&self) -> u8 {
        match &self.discipline {
            Discipline::Fifo(_) => 1,
            Discipline::StrictPriority(s) => s.queues.len() as u8,
            Discipline::Drr(s) => s.queues.len() as u8,
        }
    }

    /// Which internal queue `pkt` maps to (0 for FIFO).
    #[inline]
    pub fn queue_for(&self, pkt: &SimPacket) -> u8 {
        match &self.discipline {
            Discipline::Fifo(_) => 0,
            Discipline::StrictPriority(s) => s.clamp_queue(pkt.priority) as u8,
            Discipline::Drr(s) => s.clamp_queue(pkt.priority) as u8,
        }
    }
}

/// Single FIFO queue.
#[derive(Debug, Default)]
pub struct Fifo {
    queue: VecDeque<SimPacket>,
}

impl Fifo {
    /// Create an empty FIFO.
    pub fn new() -> Fifo {
        Fifo::default()
    }

    /// Admit a packet.
    #[inline]
    pub fn enqueue(&mut self, pkt: SimPacket) {
        self.queue.push_back(pkt);
    }

    /// Remove the oldest packet.
    #[inline]
    pub fn dequeue(&mut self) -> Option<SimPacket> {
        self.queue.pop_front()
    }
}

/// Strict-priority scheduling over multiple FIFO queues.
#[derive(Debug)]
pub struct StrictPriority {
    queues: Vec<VecDeque<SimPacket>>,
}

impl StrictPriority {
    /// Create with `n` priority levels (0 = highest).
    pub fn new(n: u8) -> StrictPriority {
        StrictPriority {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    fn clamp_queue(&self, priority: u8) -> usize {
        usize::from(priority).min(self.queues.len() - 1)
    }

    /// Admit a packet to its priority's queue.
    pub fn enqueue(&mut self, pkt: SimPacket) {
        let q = self.clamp_queue(pkt.priority);
        self.queues[q].push_back(pkt);
    }

    /// The highest-priority backlogged queue.
    fn select(&mut self) -> Option<&mut VecDeque<SimPacket>> {
        self.queues.iter_mut().find(|q| !q.is_empty())
    }

    /// Remove the head of the highest-priority backlogged queue.
    pub fn dequeue(&mut self) -> Option<SimPacket> {
        self.select()?.pop_front()
    }

    /// Queued packets, all priorities.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// True when no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }
}

/// Deficit round-robin.
#[derive(Debug)]
pub struct Drr {
    queues: Vec<VecDeque<SimPacket>>,
    deficits: Vec<u64>,
    quantum: u32,
    /// Queue the round-robin pointer currently rests on.
    current: usize,
}

impl Drr {
    /// Create with `n` queues and `quantum` bytes added per visit.
    pub fn new(n: u8, quantum: u32) -> Drr {
        Drr {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            deficits: vec![0; usize::from(n)],
            quantum,
            current: 0,
        }
    }

    fn clamp_queue(&self, priority: u8) -> usize {
        usize::from(priority).min(self.queues.len() - 1)
    }

    /// Admit a packet to its priority's queue.
    pub fn enqueue(&mut self, pkt: SimPacket) {
        let q = self.clamp_queue(pkt.priority);
        self.queues[q].push_back(pkt);
    }

    /// The queue whose head the round-robin pointer can afford next,
    /// charged for it: the caller pops that head.
    fn select(&mut self) -> Option<&mut VecDeque<SimPacket>> {
        if self.is_empty() {
            return None;
        }
        // Each full sweep adds a quantum to every backlogged queue, so a
        // head packet of L bytes becomes sendable within ⌈L/quantum⌉
        // sweeps; the bound below is a defensive cap, not the expectation.
        let max_iters = self.queues.len()
            * (2 + usize::try_from(u32::MAX / self.quantum.max(1))
                .unwrap_or(usize::MAX)
                .min(1 << 20));
        for _ in 0..max_iters {
            let q = self.current;
            if let Some(head) = self.queues[q].front() {
                if self.deficits[q] >= u64::from(head.len) {
                    self.deficits[q] -= u64::from(head.len);
                    if self.queues[q].len() == 1 {
                        // A queue this send empties forfeits its deficit
                        // (standard DRR).
                        self.deficits[q] = 0;
                        self.current = (q + 1) % self.queues.len();
                    }
                    return Some(&mut self.queues[q]);
                }
                // Head too large: top up and move on.
                self.deficits[q] += u64::from(self.quantum);
            }
            self.current = (q + 1) % self.queues.len();
        }
        // Quantum ≥ 1 guarantees progress; unreachable with queued packets.
        unreachable!("DRR failed to make progress");
    }

    /// Remove the next packet the round-robin pointer can afford.
    pub fn dequeue(&mut self) -> Option<SimPacket> {
        self.select()?.pop_front()
    }

    /// True when no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_packet::FlowId;

    fn pkt(flow: u32, len: u32, priority: u8) -> SimPacket {
        SimPacket::new(FlowId(flow), len, 0).with_priority(priority)
    }

    #[test]
    fn fifo_preserves_order() {
        let mut s = Fifo::new();
        s.enqueue(pkt(1, 100, 0));
        s.enqueue(pkt(2, 100, 0));
        s.enqueue(pkt(3, 100, 0));
        let order: Vec<u32> = std::iter::from_fn(|| s.dequeue())
            .map(|p| p.flow.0)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn strict_priority_starves_low() {
        let mut s = StrictPriority::new(2);
        s.enqueue(pkt(10, 100, 1)); // low priority first in
        s.enqueue(pkt(20, 100, 0));
        s.enqueue(pkt(21, 100, 0));
        assert_eq!(s.dequeue().unwrap().flow.0, 20);
        assert_eq!(s.dequeue().unwrap().flow.0, 21);
        assert_eq!(s.dequeue().unwrap().flow.0, 10);
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn strict_priority_clamps_out_of_range() {
        let mut s = StrictPriority::new(2);
        s.enqueue(pkt(1, 100, 7)); // priority 7 clamps to queue 1
        assert_eq!(s.len(), 1);
        assert_eq!(s.dequeue().unwrap().flow.0, 1);
    }

    #[test]
    fn drr_interleaves_equal_weights() {
        let mut s = Drr::new(2, 1000);
        for i in 0..4 {
            s.enqueue(pkt(i, 500, 0));
            s.enqueue(pkt(100 + i, 500, 1));
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.dequeue())
            .map(|p| p.flow.0)
            .collect();
        // Equal quanta and equal sizes → fair interleave: each round sends
        // two packets per queue (quantum 1000, packet 500).
        let q0_sent: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, f)| **f < 100)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(order.len(), 8);
        // Queue 0's packets must not all come first: fairness interleaves.
        assert!(
            *q0_sent.last().unwrap() > 3,
            "DRR did not interleave: {order:?}"
        );
    }

    #[test]
    fn drr_respects_byte_fairness() {
        // Queue 0 sends 1500 B packets, queue 1 sends 500 B packets. With
        // equal quanta, queue 1 should send ~3x as many packets.
        let mut s = Drr::new(2, 1500);
        for i in 0..10 {
            s.enqueue(pkt(i, 1500, 0));
        }
        for i in 0..30 {
            s.enqueue(pkt(1000 + i, 500, 1));
        }
        let first12: Vec<u32> = (0..12).map(|_| s.dequeue().unwrap().flow.0).collect();
        let q0 = first12.iter().filter(|f| **f < 1000).count();
        let q1 = first12.len() - q0;
        assert!(
            (2..=4).contains(&(q1 / q0.max(1))),
            "byte fairness violated: q0={q0}, q1={q1}"
        );
    }

    #[test]
    fn drr_drains_completely() {
        let mut s = Drr::new(3, 100);
        for i in 0..50 {
            s.enqueue(pkt(i, 1500, (i % 3) as u8));
        }
        let mut count = 0;
        while s.dequeue().is_some() {
            count += 1;
        }
        assert_eq!(count, 50);
        assert!(s.is_empty());
    }

    #[test]
    fn kind_builds_expected_variant() {
        assert_eq!(SchedulerKind::Fifo.build().len(), 0);
        let mut sp = SchedulerKind::StrictPriority { queues: 0 }.build();
        sp.enqueue(pkt(1, 64, 0)); // queues clamped to at least 1
        assert_eq!(sp.len(), 1);
    }
}
