//! The traffic manager: per-port queue state between ingress and egress.
//!
//! Queue depth is accounted in *buffer cells* of `cell_bytes` each (80 B on
//! Tofino), matching the granularity of the paper's `enq_qdepth` metadata
//! and the index of the queue monitor ("maximum length of the queue divided
//! by the buffer allocation granularity", §5). A packet of length `len`
//! occupies `ceil(len / cell_bytes)` cells.

use crate::scheduler::{Scheduler, SchedulerKind};
use crate::stats::PortStats;
use pq_packet::{time::tx_delay_ns, Nanos, SimPacket};

/// Static configuration of one egress port.
#[derive(Debug, Clone, Copy)]
pub struct PortConfig {
    /// Line rate in Gbps.
    pub rate_gbps: f64,
    /// Tail-drop threshold in buffer cells.
    pub max_depth_cells: u32,
    /// Queue discipline.
    pub scheduler: SchedulerKind,
}

impl Default for PortConfig {
    fn default() -> Self {
        // A 10 Gbps port with a deep (2 MB-ish at 80 B cells) buffer, the
        // regime the paper's evaluation explores (queue depths above 20k
        // cells appear in Figure 9).
        PortConfig {
            rate_gbps: 10.0,
            max_depth_cells: 32_768,
            scheduler: SchedulerKind::Fifo,
        }
    }
}

/// The outcome of offering a packet to a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Admitted; the contained value is the depth (cells) after insertion.
    Stored { depth_after: u32 },
    /// Tail-dropped.
    Dropped,
}

/// What a packet of one wire length costs a port: the buffer cells it
/// occupies and the nanoseconds it holds the serializer.
#[derive(Clone, Copy)]
struct Cost {
    cells: u32,
    tx_ns: u32,
}

/// A cost-table slot not computed yet. A delay too long for the field is
/// never stored and one of exactly this value reads back as unfilled, so
/// both are computed directly every time.
const UNFILLED: Cost = Cost {
    cells: 0,
    tx_ns: u32::MAX,
};

/// Wire lengths the cost table covers: up to a 9216 B jumbo frame.
const COST_TABLE_LEN: usize = 9217;

/// Runtime state of one egress port.
pub struct Port {
    config: PortConfig,
    /// Buffer allocation granularity of the switch this port belongs to.
    cell_bytes: u32,
    scheduler: Scheduler,
    /// [`Port::cells_for`] and `tx_delay_ns` by wire length, filled from
    /// those two functions on first use, so only the first packet of a
    /// length pays their divides (two integer, one `f64` with a `ceil`).
    costs: Box<[Cost]>,
    /// Current total depth in buffer cells (all queues; tail drop operates
    /// on this shared-buffer figure).
    depth_cells: u32,
    /// Per-queue depths in buffer cells (length = scheduler queue count).
    queue_depths: Vec<u32>,
    /// True while the serializer is busy transmitting a packet.
    transmitting: bool,
    /// Counters.
    pub stats: PortStats,
}

impl std::fmt::Debug for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Port")
            .field("depth_cells", &self.depth_cells)
            .field("transmitting", &self.transmitting)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Port {
    /// Create a port from its configuration, in a switch that allocates
    /// its buffer in cells of `cell_bytes`.
    pub fn new(config: PortConfig, cell_bytes: u32) -> Port {
        let scheduler = config.scheduler.build();
        let queue_depths = vec![0; usize::from(scheduler.num_queues())];
        Port {
            scheduler,
            config,
            cell_bytes,
            costs: vec![UNFILLED; COST_TABLE_LEN].into(),
            depth_cells: 0,
            queue_depths,
            transmitting: false,
            stats: PortStats::default(),
        }
    }

    /// The port's configuration.
    pub fn config(&self) -> &PortConfig {
        &self.config
    }

    /// Current total port depth in buffer cells (all queues).
    pub fn depth_cells(&self) -> u32 {
        self.depth_cells
    }

    /// True while the serializer is busy transmitting a packet.
    #[inline]
    pub fn transmitting(&self) -> bool {
        self.transmitting
    }

    /// Number of internal queues (1 for FIFO).
    pub fn num_queues(&self) -> u8 {
        self.scheduler.num_queues()
    }

    /// Number of cells `len` bytes occupy at this switch's granularity.
    pub fn cells_for(len: u32, cell_bytes: u32) -> u32 {
        len.div_ceil(cell_bytes)
    }

    /// Cells a `len`-byte packet occupies and nanoseconds it takes to
    /// serialize on this port — `cells_for(len, cell_bytes)` and
    /// `tx_delay_ns(len, rate_gbps)`, from the table where it has them.
    #[inline]
    fn cost(&mut self, len: u32) -> (u32, Nanos) {
        match self.costs.get(len as usize) {
            Some(cost) if cost.tx_ns != UNFILLED.tx_ns => (cost.cells, Nanos::from(cost.tx_ns)),
            _ => self.compute_cost(len),
        }
    }

    /// The direct computation, remembered when the table can hold it.
    #[cold]
    fn compute_cost(&mut self, len: u32) -> (u32, Nanos) {
        let cells = Self::cells_for(len, self.cell_bytes);
        let tx_ns = tx_delay_ns(len, self.config.rate_gbps);
        if let (Some(slot), Ok(tx_ns)) = (self.costs.get_mut(len as usize), u32::try_from(tx_ns)) {
            *slot = Cost { cells, tx_ns };
        }
        (cells, tx_ns)
    }

    /// Offer a packet to the queue at time `now`. On admission the packet's
    /// Table-1 metadata (`enq_timestamp`, `enq_qdepth`, `queue`) is stamped
    /// in place, so the caller's copy matches what the scheduler stored and
    /// enqueue hooks observe the final metadata.
    #[inline]
    pub fn enqueue(&mut self, pkt: &mut SimPacket, now: Nanos) -> EnqueueOutcome {
        let (cells, _) = self.cost(pkt.len);
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

    /// Begin transmitting the next scheduled packet at `now`, if the
    /// serializer is idle and one is queued.
    ///
    /// The packet *dequeues* at the start of serialization: it is read out
    /// of its queue slot once, its `deq_timedelta` is stamped, the depth
    /// drops, and `egress` (the egress pipeline) borrows it along with the
    /// depth its own queue is left at (the port depth on FIFO ports).
    /// Returns the time the serializer will be busy until.
    #[inline]
    pub fn start_tx(&mut self, now: Nanos, egress: impl FnOnce(&SimPacket, u32)) -> Option<Nanos> {
        if self.transmitting {
            return None;
        }
        let mut pkt = self.scheduler.dequeue()?;
        let (cells, tx_ns) = self.cost(pkt.len);
        debug_assert!(self.depth_cells >= cells, "queue depth underflow");
        self.depth_cells -= cells;
        let qd = &mut self.queue_depths[usize::from(pkt.meta.queue)];
        debug_assert!(*qd >= cells, "per-queue depth underflow");
        *qd -= cells;
        pkt.meta.deq_timedelta = (now - pkt.meta.enq_timestamp) as u32;
        self.stats.dequeued += 1;
        self.stats.tx_bytes += u64::from(pkt.len);
        self.stats.total_queue_delay += Nanos::from(pkt.meta.deq_timedelta);
        self.transmitting = true;
        egress(&pkt, *qd);
        Some(now + tx_ns)
    }

    /// The serializer finished its packet; the port may start another.
    #[inline]
    pub fn tx_complete(&mut self) {
        debug_assert!(self.transmitting, "tx_complete on idle port");
        self.transmitting = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_packet::FlowId;

    const CELL: u32 = 80;

    fn port() -> Port {
        let config = PortConfig {
            rate_gbps: 10.0,
            max_depth_cells: 4,
            scheduler: SchedulerKind::Fifo,
        };
        Port::new(config, CELL)
    }

    /// A started transmission: the packet the egress pipeline saw and the
    /// time the serializer frees up.
    struct Sent {
        pkt: SimPacket,
        done: Nanos,
    }

    fn start_tx(p: &mut Port, now: Nanos) -> Option<Sent> {
        let mut seen = None;
        let done = p.start_tx(now, |pkt, _| seen = Some(*pkt))?;
        let pkt = seen.expect("egress ran");
        Some(Sent { pkt, done })
    }

    fn pkt(flow: u32, len: u32) -> SimPacket {
        SimPacket::new(FlowId(flow), len, 0)
    }

    #[test]
    fn cells_round_up() {
        assert_eq!(Port::cells_for(1, CELL), 1);
        assert_eq!(Port::cells_for(80, CELL), 1);
        assert_eq!(Port::cells_for(81, CELL), 2);
        assert_eq!(Port::cells_for(1500, CELL), 19);
    }

    #[test]
    fn enqueue_stamps_metadata() {
        let mut p = port();
        match p.enqueue(&mut pkt(1, 100), 500) {
            EnqueueOutcome::Stored { depth_after } => assert_eq!(depth_after, 2),
            other => panic!("unexpected {other:?}"),
        }
        let sent = start_tx(&mut p, 700).unwrap().pkt;
        assert_eq!(sent.meta.enq_timestamp, 500);
        assert_eq!(sent.meta.enq_qdepth, 2);
        assert_eq!(sent.meta.deq_timedelta, 200);
    }

    #[test]
    fn tail_drop_at_threshold() {
        let mut p = port(); // 4-cell limit
        assert!(matches!(
            p.enqueue(&mut pkt(1, 240), 0), // 3 cells
            EnqueueOutcome::Stored { .. }
        ));
        assert_eq!(p.enqueue(&mut pkt(2, 160), 0), EnqueueOutcome::Dropped); // 2 cells > 1 free
        assert!(matches!(
            p.enqueue(&mut pkt(3, 80), 0), // exactly fits
            EnqueueOutcome::Stored { depth_after: 4 }
        ));
        assert_eq!(p.stats.dropped, 1);
        assert_eq!(p.stats.enqueued, 2);
    }

    #[test]
    fn depth_falls_at_tx_start() {
        let mut p = port();
        p.enqueue(&mut pkt(1, 80), 0);
        p.enqueue(&mut pkt(2, 80), 0);
        assert_eq!(p.depth_cells(), 2);
        let done = start_tx(&mut p, 10).unwrap().done;
        assert_eq!(p.depth_cells(), 1);
        // 80 B at 10 Gbps = 64 ns.
        assert_eq!(done, 74);
        // Serializer busy: no second tx until completion.
        assert!(start_tx(&mut p, 20).is_none());
        p.tx_complete();
        assert!(start_tx(&mut p, 74).is_some());
    }

    #[test]
    fn stats_accumulate() {
        let mut p = port();
        p.enqueue(&mut pkt(1, 80), 0);
        let done = start_tx(&mut p, 100).unwrap().done;
        p.tx_complete();
        assert_eq!(p.stats.dequeued, 1);
        assert_eq!(p.stats.tx_bytes, 80);
        assert_eq!(p.stats.total_queue_delay, 100);
        assert_eq!(p.stats.max_depth_cells, 1);
        assert!(done > 100);
    }

    /// `port.cost(len)` twice — the call that fills the slot and the call
    /// that reads it back — against the two functions the table caches.
    fn assert_cost_is_direct(port: &mut Port, len: u32) {
        let direct = (
            Port::cells_for(len, port.cell_bytes),
            tx_delay_ns(len, port.config.rate_gbps),
        );
        assert_eq!(port.cost(len), direct, "len {len}, filling");
        assert_eq!(port.cost(len), direct, "len {len}, filled");
    }

    #[test]
    fn cost_table_equals_direct_computation() {
        for rate_gbps in [0.5, 1.0, 10.0, 25.0, 40.0, 100.0] {
            for cell_bytes in [64, 80, 128] {
                let config = PortConfig {
                    rate_gbps,
                    ..PortConfig::default()
                };
                let mut port = Port::new(config, cell_bytes);
                // Every length the table covers, then some past its end.
                for len in (0..COST_TABLE_LEN as u32).chain([9217, 9218, 65_535, u32::MAX]) {
                    assert_cost_is_direct(&mut port, len);
                }
                assert!(port.costs.iter().all(|c| c.tx_ns != UNFILLED.tx_ns));
            }
        }
    }

    #[test]
    fn cost_too_long_for_the_table_is_computed_directly() {
        // 1 kbps: a 1500 B packet takes 12 s, which a u32 of nanoseconds
        // cannot hold; 536 B takes 4.288 s, which it just can.
        let config = PortConfig {
            rate_gbps: 1e-6,
            ..PortConfig::default()
        };
        let mut port = Port::new(config, CELL);
        for len in [1500, 537, 536, 0] {
            assert_cost_is_direct(&mut port, len);
        }
        assert_eq!(port.cost(1500).1, 12_000_000_000);
        assert_eq!(port.costs[1500].tx_ns, UNFILLED.tx_ns);
        assert_eq!(port.costs[537].tx_ns, UNFILLED.tx_ns);
        assert_eq!(port.costs[536].tx_ns, 4_288_000_000);
    }

    #[test]
    fn zero_length_packet_is_a_filled_slot() {
        let mut p = port();
        assert_eq!(p.cost(0), (0, 0));
        // Filled with zeros, and told apart from a slot never computed.
        assert_eq!((p.costs[0].cells, p.costs[0].tx_ns), (0, 0));
        assert_eq!(p.costs[1].tx_ns, UNFILLED.tx_ns);
        // It occupies nothing and sends in no time.
        assert!(matches!(
            p.enqueue(&mut pkt(1, 0), 5),
            EnqueueOutcome::Stored { depth_after: 0 }
        ));
        assert_eq!(start_tx(&mut p, 5).unwrap().done, 5);
    }
}
