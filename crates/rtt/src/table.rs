//! Hash-indexed per-flow RTT measurement table.
//!
//! This is the register-budget-shaped core of the subsystem: a fixed array
//! of flow slots, each holding one flow's RTT state — a bounded list of
//! outstanding sequence-match timestamps (SYN/ACK and data/ACK pairing, the
//! P4TG style), the QUIC spin-bit edge state, and a log-scale histogram.
//! Nothing here allocates per packet.
//!
//! Memory is the scarce resource, so contention is accounted rather than
//! hidden: a packet whose flow hashes onto a slot owned by a *live* other
//! flow is a **collision** (the sample is lost); a slot whose owner has
//! gone idle past the staleness threshold is **evicted** to the finished
//! list and the slot rebound. Both counters surface in reports as
//! `degraded`, exactly like eviction accounting in the space-saving top-k.

use crate::obs::{Dir, ObsKind, RttObs};
use crate::{RttHist, MAX_RTT_NS};
use pq_packet::Nanos;

/// Sizing and staleness knobs for one [`FlowRttTable`].
#[derive(Clone, Copy, Debug)]
pub struct TableConfig {
    /// Number of flow slots (the memory budget).
    pub slots: usize,
    /// Outstanding sequence-match timestamps kept per slot.
    pub pending: usize,
    /// Idle time after which a slot's owner may be evicted.
    pub stale_after_ns: Nanos,
    /// Timestamped samples retained for streaming (beyond this they are
    /// still histogrammed, but the sample list is clipped).
    pub sample_cap: usize,
}

impl Default for TableConfig {
    fn default() -> TableConfig {
        TableConfig {
            slots: 2048,
            pending: 4,
            stale_after_ns: 10_000_000, // 10 ms of sim time
            sample_cap: 65_536,
        }
    }
}

/// One outstanding data/SYN timestamp awaiting its ACK.
#[derive(Clone, Copy, Debug)]
struct Pending {
    expect_ack: u64,
    sent_at: Nanos,
}

/// QUIC spin-bit edge-detector state for one flow.
///
/// Only packets that *advance* the largest packet number are eligible to
/// flip the spin observation — a reordered packet carries a stale spin
/// value and must not fake an edge. Because eligibility requires
/// `pkt_num > largest` and switch time is monotone, every emitted sample
/// is `now - last_edge ≥ 0` by construction.
#[derive(Clone, Copy, Debug, Default)]
struct SpinState {
    largest_pkt_num: u64,
    spin: bool,
    seen_any: bool,
    last_edge: Option<Nanos>,
}

/// One flow slot.
#[derive(Clone, Debug)]
struct Slot {
    /// Owning flow id (`u32::MAX` = free).
    tag: u32,
    last_seen: Nanos,
    pending: Vec<Pending>,
    spin: SpinState,
    hist: RttHist,
}

impl Slot {
    fn free() -> Slot {
        Slot {
            tag: u32::MAX,
            last_seen: 0,
            pending: Vec::new(),
            spin: SpinState::default(),
            hist: RttHist::default(),
        }
    }

    fn rebind(&mut self, tag: u32, now: Nanos) {
        self.tag = tag;
        self.last_seen = now;
        self.pending.clear();
        self.spin = SpinState::default();
        self.hist = RttHist::default();
    }
}

/// A timestamped RTT sample, the unit fed to standing queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub struct RttSample {
    /// Sim time the sample completed (ACK or spin edge observed).
    pub t_ns: Nanos,
    /// Flow the sample belongs to.
    pub flow: u32,
    /// Measured round-trip time.
    pub rtt_ns: u64,
}

/// Counters describing how much the table had to degrade.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableCounters {
    /// Samples produced by sequence-match pairing.
    pub seq_samples: u64,
    /// Samples produced by spin-bit edges.
    pub spin_edges: u64,
    /// Packets lost to a slot owned by another live flow.
    pub collisions: u64,
    /// Idle incumbents displaced to make room for a new flow.
    pub evictions: u64,
    /// Samples or timestamps dropped to bounded state (pending overflow,
    /// finished-list overflow, sample-list clip).
    pub sample_drops: u64,
}

impl TableCounters {
    /// True when any bounded-memory loss occurred.
    pub fn degraded(&self) -> bool {
        self.collisions > 0 || self.evictions > 0 || self.sample_drops > 0
    }
}

/// The fixed-budget per-flow RTT table.
pub struct FlowRttTable {
    config: TableConfig,
    slots: Vec<Slot>,
    /// Histograms of evicted incumbents, so their measurements survive
    /// slot reuse. Bounded by `config.slots`; beyond that, dropped.
    finished: Vec<(u32, RttHist)>,
    samples: Vec<RttSample>,
    counters: TableCounters,
}

impl FlowRttTable {
    /// Build a table with the given budget.
    pub fn new(config: TableConfig) -> FlowRttTable {
        let slots = config.slots.max(1);
        FlowRttTable {
            config: TableConfig { slots, ..config },
            slots: vec![Slot::free(); slots],
            finished: Vec::new(),
            samples: Vec::new(),
            counters: TableCounters::default(),
        }
    }

    fn slot_index(&self, flow: u32) -> usize {
        // Fibonacci hashing: cheap, stateless, good spread for dense ids.
        let h = (flow as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % self.config.slots
    }

    /// Claim the slot for `flow`, applying collision/eviction policy.
    /// Returns `None` when the packet's sample must be dropped.
    fn claim(&mut self, flow: u32, now: Nanos) -> Option<usize> {
        let idx = self.slot_index(flow);
        let stale = self.config.stale_after_ns;
        let slot = &mut self.slots[idx];
        if slot.tag == flow {
            slot.last_seen = now;
            return Some(idx);
        }
        if slot.tag == u32::MAX {
            slot.rebind(flow, now);
            return Some(idx);
        }
        if now.saturating_sub(slot.last_seen) > stale {
            // Evict the idle incumbent, preserving its histogram.
            let old_tag = slot.tag;
            let old_hist = std::mem::take(&mut slot.hist);
            slot.rebind(flow, now);
            self.counters.evictions += 1;
            if !old_hist.is_empty() {
                if self.finished.len() < self.config.slots {
                    self.finished.push((old_tag, old_hist));
                } else {
                    self.counters.sample_drops += old_hist.count;
                }
            }
            return Some(idx);
        }
        self.counters.collisions += 1;
        None
    }

    fn emit(&mut self, idx: usize, flow: u32, now: Nanos, rtt: u64) {
        let rtt = rtt.min(MAX_RTT_NS);
        self.slots[idx].hist.record(rtt);
        if self.samples.len() < self.config.sample_cap {
            self.samples.push(RttSample {
                t_ns: now,
                flow,
                rtt_ns: rtt,
            });
        } else {
            self.counters.sample_drops += 1;
        }
    }

    /// Feed one observed packet through the measurement engines.
    pub fn observe(&mut self, obs: &RttObs, now: Nanos) {
        let Some(idx) = self.claim(obs.flow, now) else {
            return;
        };
        match obs.kind {
            ObsKind::Data { expect_ack } => {
                if obs.dir != Dir::ToServer {
                    return;
                }
                let pending = &mut self.slots[idx].pending;
                if pending.len() >= self.config.pending.max(1) {
                    // Oldest timestamp gives way; its ACK will find nothing.
                    pending.remove(0);
                    self.counters.sample_drops += 1;
                }
                pending.push(Pending {
                    expect_ack,
                    sent_at: now,
                });
            }
            ObsKind::Ack { ack } => {
                if obs.dir != Dir::ToClient {
                    return;
                }
                let pending = &mut self.slots[idx].pending;
                if let Some(pos) = pending.iter().position(|p| p.expect_ack == ack) {
                    let sent_at = pending.remove(pos).sent_at;
                    let rtt = now.saturating_sub(sent_at);
                    self.counters.seq_samples += 1;
                    self.emit(idx, obs.flow, now, rtt);
                }
            }
            ObsKind::Spin { pkt_num, spin } => {
                if obs.dir != Dir::ToServer {
                    return;
                }
                let st = &mut self.slots[idx].spin;
                if st.seen_any && pkt_num <= st.largest_pkt_num {
                    return; // reordered: stale spin value, never an edge
                }
                let flipped = st.seen_any && spin != st.spin;
                let prev_edge = st.last_edge;
                st.largest_pkt_num = pkt_num;
                st.spin = spin;
                st.seen_any = true;
                if flipped {
                    st.last_edge = Some(now);
                    if let Some(edge) = prev_edge {
                        let rtt = now.saturating_sub(edge);
                        self.counters.spin_edges += 1;
                        self.emit(idx, obs.flow, now, rtt);
                    }
                }
            }
        }
    }

    /// Degradation counters so far.
    pub fn counters(&self) -> &TableCounters {
        &self.counters
    }

    /// Timestamped samples collected so far (bounded by `sample_cap`).
    pub fn samples(&self) -> &[RttSample] {
        &self.samples
    }

    /// Drain per-flow histograms: live slots plus evicted incumbents,
    /// merged by flow id. The table itself is left untouched.
    pub fn flow_hists(&self) -> Vec<(u32, RttHist)> {
        let mut out: Vec<(u32, RttHist)> = Vec::new();
        for slot in &self.slots {
            if slot.tag != u32::MAX && !slot.hist.is_empty() {
                out.push((slot.tag, slot.hist.clone()));
            }
        }
        for (tag, hist) in &self.finished {
            out.push((*tag, hist.clone()));
        }
        out.sort_by_key(|(tag, _)| *tag);
        // Merge duplicates (a flow evicted and later re-admitted).
        let mut merged: Vec<(u32, RttHist)> = Vec::new();
        for (tag, hist) in out {
            match merged.last_mut() {
                Some((last, acc)) if *last == tag => acc.merge(&hist),
                _ => merged.push((tag, hist)),
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{Dir, ObsKind, RttObs};

    fn data(flow: u32, expect_ack: u64) -> RttObs {
        RttObs {
            flow,
            dir: Dir::ToServer,
            kind: ObsKind::Data { expect_ack },
        }
    }

    fn ack(flow: u32, ack: u64) -> RttObs {
        RttObs {
            flow,
            dir: Dir::ToClient,
            kind: ObsKind::Ack { ack },
        }
    }

    fn spin(flow: u32, pkt_num: u64, spin: bool) -> RttObs {
        RttObs {
            flow,
            dir: Dir::ToServer,
            kind: ObsKind::Spin { pkt_num, spin },
        }
    }

    #[test]
    fn seq_match_measures_the_gap() {
        let mut t = FlowRttTable::new(TableConfig::default());
        t.observe(&data(7, 1500), 1_000);
        t.observe(&ack(7, 1500), 101_000);
        assert_eq!(t.counters().seq_samples, 1);
        let hists = t.flow_hists();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].0, 7);
        assert_eq!(hists[0].1.max, 100_000);
        assert_eq!(
            t.samples(),
            &[RttSample {
                t_ns: 101_000,
                flow: 7,
                rtt_ns: 100_000
            }]
        );
    }

    #[test]
    fn unmatched_ack_is_ignored() {
        let mut t = FlowRttTable::new(TableConfig::default());
        t.observe(&data(7, 1500), 1_000);
        t.observe(&ack(7, 9_999), 2_000);
        assert_eq!(t.counters().seq_samples, 0);
    }

    #[test]
    fn spin_edges_measure_flip_to_flip() {
        let mut t = FlowRttTable::new(TableConfig::default());
        t.observe(&spin(3, 1, false), 0);
        t.observe(&spin(3, 2, true), 50_000); // first edge arms
        t.observe(&spin(3, 3, true), 60_000);
        t.observe(&spin(3, 4, false), 150_000); // second edge samples
        assert_eq!(t.counters().spin_edges, 1);
        assert_eq!(t.flow_hists()[0].1.max, 100_000);
    }

    #[test]
    fn reordered_spin_packet_is_not_an_edge() {
        let mut t = FlowRttTable::new(TableConfig::default());
        t.observe(&spin(3, 5, true), 100);
        t.observe(&spin(3, 2, false), 200); // late, stale spin: ignored
        assert_eq!(t.counters().spin_edges, 0);
        t.observe(&spin(3, 6, false), 300); // genuine edge arms
        t.observe(&spin(3, 7, true), 400);
        assert_eq!(t.counters().spin_edges, 1);
    }

    #[test]
    fn live_collision_counts_and_drops() {
        let cfg = TableConfig {
            slots: 1,
            ..TableConfig::default()
        };
        let mut t = FlowRttTable::new(cfg);
        t.observe(&data(1, 100), 0);
        t.observe(&data(2, 100), 10); // flow 2 collides with live flow 1
        assert_eq!(t.counters().collisions, 1);
        assert!(t.counters().degraded());
    }

    #[test]
    fn stale_incumbent_is_evicted_and_preserved() {
        let cfg = TableConfig {
            slots: 1,
            ..TableConfig::default()
        };
        let mut t = FlowRttTable::new(cfg);
        t.observe(&data(1, 100), 0);
        t.observe(&ack(1, 100), 5_000);
        // Past the staleness threshold flow 2 takes the slot.
        t.observe(&data(2, 64), 20_000_000);
        t.observe(&ack(2, 64), 20_001_000);
        assert_eq!(t.counters().evictions, 1);
        let hists = t.flow_hists();
        assert_eq!(
            hists.iter().map(|(f, _)| *f).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(hists[0].1.count, 1); // flow 1's sample survived eviction
    }

    #[test]
    fn pending_overflow_drops_oldest() {
        let cfg = TableConfig {
            pending: 2,
            ..TableConfig::default()
        };
        let mut t = FlowRttTable::new(cfg);
        t.observe(&data(1, 10), 0);
        t.observe(&data(1, 20), 1);
        t.observe(&data(1, 30), 2); // displaces expect_ack=10
        t.observe(&ack(1, 10), 3);
        assert_eq!(t.counters().seq_samples, 0);
        assert_eq!(t.counters().sample_drops, 1);
        t.observe(&ack(1, 30), 4);
        assert_eq!(t.counters().seq_samples, 1);
    }
}
