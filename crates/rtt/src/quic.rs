//! QUIC-like bidirectional workload generator with known RTT ground truth.
//!
//! Two flavours of flow share one trace:
//!
//! * **seq flows** — TCP-style: the client sends data packets with
//!   cumulative sequence numbers; the server's ACK for each returns after
//!   the flow's true RTT (± jitter, + reordering delay, or never when
//!   lost). SYN/ACK pairing is the degenerate first data/ACK pair.
//! * **spin flows** — QUIC-style: short-header packets expose a spin bit
//!   that flips once per true RTT, with monotone packet numbers so the
//!   detector can reject reordered packets.
//!
//! Every flow's true base RTT is recorded in [`FlowTruth`], which is what
//! the `ext_rtt_precision` experiment grades estimates against. Loss
//! removes the returning ACK (or the spin packet itself); reordering adds
//! a positive delivery delay to a random subset, which both perturbs
//! seq-match samples and presents stale spin values out of order.

use crate::hook::RttHook;
use crate::obs::{Dir, ObsKind, RttObs};
use crate::report::RttReport;
use crate::table::TableConfig;
use pq_packet::ipv4::Address;
use pq_packet::{FlowId, FlowKey, FlowTable, Nanos, SimPacket};
use pq_switch::{Arrival, PortConfig, Switch, SwitchConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Configuration for one generated RTT workload.
#[derive(Clone, Debug, serde::Serialize)]
pub struct RttWorkload {
    /// Number of bidirectional flows.
    pub flows: u32,
    /// Egress ports; flow `f` observes on port `f % ports`.
    pub ports: u16,
    /// Client packets per flow.
    pub pkts_per_flow: u32,
    /// Gap between a flow's consecutive client packets (ns).
    pub send_interval_ns: Nanos,
    /// True base RTT is drawn uniformly from this range (ns).
    pub rtt_min_ns: u64,
    /// Upper end of the base-RTT range (ns).
    pub rtt_max_ns: u64,
    /// Symmetric per-sample jitter as a fraction of the base RTT.
    pub jitter_frac: f64,
    /// Probability a returning ACK (seq) or a packet (spin) is lost.
    pub loss: f64,
    /// Probability a delivery is delayed out of order.
    pub reorder: f64,
    /// Maximum extra delay a reordered delivery suffers (ns).
    pub reorder_max_ns: Nanos,
    /// Fraction of flows that are spin flows (flow 0 is always a seq
    /// flow so the planted slow flow yields deterministic samples).
    pub spin_fraction: f64,
    /// Plant flow 0 with this base RTT (the "slow peer" to find).
    pub slow_rtt_ns: Option<u64>,
    /// Client data packet length (bytes).
    pub pkt_len: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RttWorkload {
    fn default() -> RttWorkload {
        RttWorkload {
            flows: 256,
            ports: 2,
            pkts_per_flow: 192,
            send_interval_ns: 10_000, // 10 µs
            rtt_min_ns: 200_000,      // 200 µs
            rtt_max_ns: 2_000_000,    // 2 ms
            jitter_frac: 0.05,
            loss: 0.01,
            reorder: 0.01,
            reorder_max_ns: 50_000,
            spin_fraction: 0.5,
            slow_rtt_ns: None,
            pkt_len: 1500,
            seed: 7,
        }
    }
}

/// Ground truth for one generated flow.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct FlowTruth {
    /// Interned flow id (matches `RttObs::flow`).
    pub flow: u32,
    /// Port the flow observes on.
    pub port: u16,
    /// True base RTT.
    pub rtt_ns: u64,
    /// True when this is a spin (QUIC-like) flow.
    pub spin: bool,
}

/// A generated workload: switch arrivals, the transport side table, and
/// per-flow ground truth.
pub struct RttTrace {
    /// Time-ordered switch arrivals; `pkt.seqno` indexes `obs`.
    pub arrivals: Vec<Arrival>,
    /// Transport observation per generated packet.
    pub obs: Vec<RttObs>,
    /// Ground truth per flow, indexed by flow id.
    pub truth: Vec<FlowTruth>,
    /// Interned flow identities.
    pub flows: FlowTable,
}

/// Acknowledgement packet length on the return path.
const ACK_LEN: u32 = 64;

impl RttWorkload {
    /// Generate the workload deterministically from `seed`.
    pub fn generate(&self) -> RttTrace {
        assert!(self.flows > 0, "rtt workload needs at least one flow");
        assert!(self.ports > 0, "rtt workload needs at least one port");
        assert!(self.rtt_min_ns > 0 && self.rtt_min_ns <= self.rtt_max_ns);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut flow_table = FlowTable::new();
        let mut truth = Vec::with_capacity(self.flows as usize);
        let mut obs: Vec<RttObs> = Vec::new();
        let mut events: Vec<(Nanos, u16, u32, RttObs)> = Vec::new();

        for f in 0..self.flows {
            let key = FlowKey::tcp(
                Address([10, (f >> 16) as u8, (f >> 8) as u8, f as u8]),
                40_000 + (f % 20_000) as u16,
                Address([10, 99, 0, 1]),
                443,
            );
            let id: FlowId = flow_table.intern(key);
            let flow = id.0;
            let port = (f % self.ports as u32) as u16;
            let base_rtt = match (f, self.slow_rtt_ns) {
                (0, Some(slow)) => slow,
                _ => rng.gen_range(self.rtt_min_ns..=self.rtt_max_ns),
            };
            // Flow 0 stays a seq flow so the planted slow peer produces
            // deterministic seq-match samples.
            let spin_flow = f != 0 && rng.gen_bool(self.spin_fraction.clamp(0.0, 1.0));
            truth.push(FlowTruth {
                flow,
                port,
                rtt_ns: base_rtt,
                spin: spin_flow,
            });
            let start: Nanos = rng.gen_range(0..=self.send_interval_ns);

            // Spin flows stream at the send interval; seq flows pace one
            // measured packet per RTT (stop-and-wait probing — a bounded
            // pending list cannot track a whole in-flight window, and one
            // sample per RTT is what data-plane seq-match affords).
            let seq_gap = base_rtt + self.send_interval_ns;
            for i in 0..self.pkts_per_flow as u64 {
                let t_send = if spin_flow {
                    start + i * self.send_interval_ns
                } else {
                    start + i * seq_gap
                };
                if spin_flow {
                    // Spin value flips once per true RTT.
                    let spin = ((t_send - start) / base_rtt) % 2 == 1;
                    if rng.gen_bool(self.loss) {
                        continue; // packet lost before the observer
                    }
                    let mut t_obs = t_send;
                    if rng.gen_bool(self.reorder) {
                        t_obs += rng.gen_range(0..=self.reorder_max_ns);
                    }
                    events.push((
                        t_obs,
                        port,
                        self.pkt_len,
                        RttObs {
                            flow,
                            dir: Dir::ToServer,
                            kind: ObsKind::Spin { pkt_num: i, spin },
                        },
                    ));
                } else {
                    let expect_ack = (i + 1) * self.pkt_len as u64;
                    events.push((
                        t_send,
                        port,
                        self.pkt_len,
                        RttObs {
                            flow,
                            dir: Dir::ToServer,
                            kind: ObsKind::Data { expect_ack },
                        },
                    ));
                    if rng.gen_bool(self.loss) {
                        continue; // data or its ACK lost downstream
                    }
                    let jitter = 1.0 + self.jitter_frac * rng.gen_range(-1.0..=1.0);
                    let mut rtt = (base_rtt as f64 * jitter).max(1.0) as u64;
                    if rng.gen_bool(self.reorder) {
                        rtt += rng.gen_range(0..=self.reorder_max_ns);
                    }
                    events.push((
                        t_send + rtt,
                        port,
                        ACK_LEN,
                        RttObs {
                            flow,
                            dir: Dir::ToClient,
                            kind: ObsKind::Ack { ack: expect_ack },
                        },
                    ));
                }
            }
        }

        // Stamp observation indices, then order arrivals by time (the
        // switch consumes a time-sorted stream).
        events.sort_by_key(|(t, port, _, o)| (*t, *port, o.flow));
        let mut arrivals = Vec::with_capacity(events.len());
        for (t, port, len, o) in events {
            let idx = obs.len() as u64;
            obs.push(o);
            let mut pkt = SimPacket::new(FlowId(o.flow), len, t);
            pkt.seqno = idx;
            arrivals.push(Arrival::new(pkt, port));
        }
        RttTrace {
            arrivals,
            obs,
            truth,
            flows: flow_table,
        }
    }

    /// Generate the workload and measure it through a switch of `ports`
    /// 100 Gbps egress ports with an [`RttHook`] at the default table
    /// budget: one report per observed port, and the ground truth.
    pub fn measure(&self) -> (Vec<RttReport>, Vec<FlowTruth>) {
        let trace = self.generate();
        let port = PortConfig {
            rate_gbps: 100.0,
            ..PortConfig::default()
        };
        let mut sw = Switch::new(SwitchConfig {
            ports: vec![port; usize::from(self.ports)],
            ..SwitchConfig::default()
        });
        let mut hook = RttHook::new(&trace.obs, TableConfig::default());
        sw.run(trace.arrivals.iter().cloned(), &mut [&mut hook], 1_000_000);
        (hook.reports(), trace.truth)
    }
}

/// Measured reports graded against ground truth, over the flows with at
/// least eight samples: a spin flow that sent for less than one RTT yields
/// no edges, which is a coverage property (visible in the sample counts),
/// not an estimation error.
#[derive(Debug)]
pub struct RttGrade {
    /// Per graded flow, `|mean − truth| / truth`, ascending.
    pub errs: Vec<f64>,
    /// The share of the truly slowest tenth of the graded flows that the
    /// slowest tenth by estimated mean finds ("who is the slow peer");
    /// `None` when no flow is graded.
    pub top_decile_recall: Option<f64>,
}

impl RttGrade {
    /// Grade `reports` against `truth`, which is indexed by flow id.
    pub fn new(reports: &[RttReport], truth: &[FlowTruth]) -> RttGrade {
        let mut errs = Vec::new();
        let mut est: Vec<(u64, u32)> = Vec::new();
        for f in reports.iter().flat_map(|r| &r.flows) {
            let Some(t) = truth.get(f.flow as usize) else {
                continue;
            };
            if f.hist.count >= 8 {
                let mean = f.hist.sum / f.hist.count;
                errs.push((mean as f64 - t.rtt_ns as f64).abs() / t.rtt_ns as f64);
                est.push((mean, f.flow));
            }
        }
        errs.sort_by(f64::total_cmp);
        est.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let graded: BTreeSet<u32> = est.iter().map(|&(_, f)| f).collect();
        let mut by_truth: Vec<&FlowTruth> =
            truth.iter().filter(|t| graded.contains(&t.flow)).collect();
        by_truth.sort_by(|a, b| b.rtt_ns.cmp(&a.rtt_ns).then(a.flow.cmp(&b.flow)));
        let k = by_truth.len().div_ceil(10);
        let top_decile_recall = (k > 0).then(|| {
            let want: BTreeSet<u32> = by_truth.iter().take(k).map(|t| t.flow).collect();
            let got: BTreeSet<u32> = est.iter().take(k).map(|&(_, f)| f).collect();
            want.intersection(&got).count() as f64 / k as f64
        });
        RttGrade {
            errs,
            top_decile_recall,
        }
    }

    /// The median relative error, `None` when no flow is graded.
    pub fn p50_err(&self) -> Option<f64> {
        self.errs.get(self.errs.len() / 2).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = RttWorkload {
            flows: 16,
            pkts_per_flow: 32,
            ..RttWorkload::default()
        };
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.obs, b.obs);
        assert_eq!(a.arrivals.len(), b.arrivals.len());
        for (x, y) in a.arrivals.iter().zip(&b.arrivals) {
            assert_eq!(x.pkt.arrival, y.pkt.arrival);
            assert_eq!(x.pkt.seqno, y.pkt.seqno);
        }
    }

    #[test]
    fn arrivals_are_time_sorted_and_stamped() {
        let cfg = RttWorkload {
            flows: 8,
            pkts_per_flow: 16,
            ..RttWorkload::default()
        };
        let trace = cfg.generate();
        assert!(trace
            .arrivals
            .windows(2)
            .all(|w| w[0].pkt.arrival <= w[1].pkt.arrival));
        for a in &trace.arrivals {
            let o = &trace.obs[a.pkt.seqno as usize];
            assert_eq!(o.flow, a.pkt.flow.0);
        }
    }

    #[test]
    fn planted_slow_flow_is_flow_zero_seq() {
        let cfg = RttWorkload {
            flows: 8,
            slow_rtt_ns: Some(30_000_000),
            ..RttWorkload::default()
        };
        let trace = cfg.generate();
        assert_eq!(trace.truth[0].rtt_ns, 30_000_000);
        assert!(!trace.truth[0].spin);
    }

    #[test]
    fn truth_covers_every_flow_and_port() {
        let cfg = RttWorkload {
            flows: 10,
            ports: 3,
            ..RttWorkload::default()
        };
        let trace = cfg.generate();
        assert_eq!(trace.truth.len(), 10);
        for (i, t) in trace.truth.iter().enumerate() {
            assert_eq!(t.flow, i as u32);
            assert_eq!(t.port, (i % 3) as u16);
            assert!(t.rtt_ns >= cfg.rtt_min_ns && t.rtt_ns <= cfg.rtt_max_ns);
        }
    }
}
