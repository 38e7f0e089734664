//! Network-wide coordination of per-switch PrintQueue instances.
//!
//! PrintQueue is deliberately a *per-switch* system; §8 positions its
//! results as inputs to higher-level provenance frameworks (Dapper, DTaP,
//! Zeno) that reason across machines. This module is that integration
//! seam: a [`Fleet`] owns one [`PrintQueue`] per switch, fans hook events
//! out by switch id, and answers *path queries* — given a victim flow's
//! per-hop queueing record, diagnose each hop and rank where the delay was
//! added and by whom.
//!
//! Nothing here adds data-plane state: the fleet is control-plane glue
//! over the per-switch artifacts, exactly how a network operator would
//! deploy the paper's system across a fabric.

use crate::diagnosis::{diagnose, Diagnosis};
use crate::metrics::ControlHealth;
use crate::printqueue::{PrintQueue, PrintQueueConfig};
use pq_packet::{Nanos, SimPacket};
use pq_switch::QueueHooks;
use pq_telemetry::RegistrySnapshot;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifies one switch in the fabric.
pub type SwitchId = u32;

/// One hop of a victim's path: where it queued, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopRecord {
    /// The switch traversed.
    pub switch: SwitchId,
    /// Egress port on that switch.
    pub port: u16,
    /// Enqueue timestamp at that hop (that switch's clock).
    pub enq_timestamp: Nanos,
    /// Dequeue timestamp at that hop.
    pub deq_timestamp: Nanos,
}

impl HopRecord {
    /// Queueing delay at this hop.
    pub fn delay(&self) -> Nanos {
        self.deq_timestamp.saturating_sub(self.enq_timestamp)
    }
}

/// A per-hop diagnosis within a path query's answer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HopDiagnosis {
    pub hop: HopRecord,
    /// Share of the path's total queueing that accrued at this hop.
    pub delay_share: f64,
    /// The per-switch PrintQueue diagnosis for the hop's interval.
    pub diagnosis: Diagnosis,
}

/// The answer to a path query: hops ordered by traversal, plus the index of
/// the dominant hop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathDiagnosis {
    pub hops: Vec<HopDiagnosis>,
    /// Index into `hops` of the largest delay contributor.
    pub dominant_hop: usize,
    /// Total path queueing delay.
    pub total_delay: Nanos,
}

/// Fleet-level rollup of per-switch control-plane health.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetHealth {
    /// Per-switch counters, sorted by switch id for stable output.
    pub per_switch: Vec<(SwitchId, ControlHealth)>,
    /// Sum over all switches.
    pub total: ControlHealth,
}

/// A fabric of per-switch PrintQueue instances.
pub struct Fleet {
    instances: HashMap<SwitchId, PrintQueue>,
}

impl Fleet {
    /// Start with no switches.
    pub fn new() -> Fleet {
        Fleet {
            instances: HashMap::new(),
        }
    }

    /// Deploy PrintQueue on a switch. Replaces any previous instance.
    pub fn deploy(&mut self, switch: SwitchId, config: PrintQueueConfig) {
        self.instances.insert(switch, PrintQueue::new(config));
    }

    /// Number of monitored switches.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when no switches are deployed.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The instance for one switch.
    pub fn instance(&self, switch: SwitchId) -> Option<&PrintQueue> {
        self.instances.get(&switch)
    }

    /// Mutable instance access (attach as a hook while simulating that
    /// switch).
    pub fn instance_mut(&mut self, switch: SwitchId) -> Option<&mut PrintQueue> {
        self.instances.get_mut(&switch)
    }

    /// A hook adapter binding this fleet's instance for `switch`, to attach
    /// to that switch's simulation run.
    pub fn hook(&mut self, switch: SwitchId) -> FleetHook<'_> {
        FleetHook {
            inner: self
                .instances
                .get_mut(&switch)
                .expect("switch not deployed"),
        }
    }

    /// Roll up every switch's control-plane health counters. Each
    /// [`ControlHealth`] is read out of that switch's telemetry registry,
    /// so this rollup and [`Fleet::metrics`] can never disagree.
    pub fn health(&self) -> FleetHealth {
        let mut per_switch: Vec<(SwitchId, ControlHealth)> = self
            .instances
            .iter()
            .map(|(id, pq)| (*id, pq.analysis().health()))
            .collect();
        per_switch.sort_by_key(|(id, _)| *id);
        let mut total = ControlHealth::default();
        for (_, h) in &per_switch {
            total.merge(h);
        }
        FleetHealth { per_switch, total }
    }

    /// Merge every switch's telemetry registry into one fleet-wide
    /// snapshot (counters add, gauges take the max, histograms add
    /// bucket-wise — all associative, so fold order is irrelevant).
    pub fn metrics(&self) -> RegistrySnapshot {
        let mut total = RegistrySnapshot::default();
        for pq in self.instances.values() {
            total.merge(&pq.analysis().telemetry().snapshot());
        }
        total
    }

    /// Diagnose a victim across its path.
    ///
    /// `path` lists the hops in traversal order with per-hop timestamps
    /// (from INT-style postcards or per-hop telemetry). For each hop with a
    /// deployed instance, runs the full §3 diagnosis against that switch's
    /// own checkpoints.
    pub fn diagnose_path(&self, path: &[HopRecord]) -> PathDiagnosis {
        let total_delay: Nanos = path.iter().map(HopRecord::delay).sum();
        let mut hops = Vec::with_capacity(path.len());
        for hop in path {
            let Some(instance) = self.instances.get(&hop.switch) else {
                continue;
            };
            let diagnosis = diagnose(
                instance.analysis(),
                hop.port,
                hop.enq_timestamp,
                hop.deq_timestamp,
                None,
            );
            hops.push(HopDiagnosis {
                hop: *hop,
                delay_share: if total_delay == 0 {
                    0.0
                } else {
                    hop.delay() as f64 / total_delay as f64
                },
                diagnosis,
            });
        }
        let dominant_hop = hops
            .iter()
            .enumerate()
            .max_by_key(|(_, h)| h.hop.delay())
            .map(|(i, _)| i)
            .unwrap_or(0);
        PathDiagnosis {
            hops,
            dominant_hop,
            total_delay,
        }
    }
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet::new()
    }
}

/// Borrowed hook binding one fleet instance to one switch run.
pub struct FleetHook<'a> {
    inner: &'a mut PrintQueue,
}

impl QueueHooks for FleetHook<'_> {
    fn on_enqueue(&mut self, pkt: &SimPacket, port: u16, depth_after: u32, now: Nanos) {
        self.inner.on_enqueue(pkt, port, depth_after, now);
    }
    fn on_dequeue(&mut self, pkt: &SimPacket, port: u16, depth_after: u32, now: Nanos) {
        self.inner.on_dequeue(pkt, port, depth_after, now);
    }
    fn on_drop(&mut self, pkt: &SimPacket, port: u16, now: Nanos) {
        self.inner.on_drop(pkt, port, now);
    }
    fn on_tick(&mut self, now: Nanos) {
        self.inner.on_tick(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TimeWindowConfig;
    use pq_packet::FlowId;
    use pq_switch::topology::DepartureTap;
    use pq_switch::{Arrival, Switch, SwitchConfig};

    fn config() -> PrintQueueConfig {
        let tw = TimeWindowConfig::new(10, 1, 10, 3);
        let mut c = PrintQueueConfig::single_port(tw, 1200);
        c.control.poll_period = 500_000;
        c
    }

    /// Two-hop fabric: hop 20 is the bottleneck. The path diagnosis must
    /// attribute the delay there and name the competing flow.
    #[test]
    fn path_diagnosis_finds_the_dominant_hop() {
        let mut fleet = Fleet::new();
        fleet.deploy(10, config());
        fleet.deploy(20, config());

        // Hop 10 at 40 Gbps: barely queues. Victim flow 0 and a heavy
        // competitor flow 1.
        let mut arrivals = Vec::new();
        for i in 0..2_000u64 {
            arrivals.push(Arrival::new(SimPacket::new(FlowId(1), 1500, i * 600), 0));
            if i % 20 == 0 {
                arrivals.push(Arrival::new(
                    SimPacket::new(FlowId(0), 1500, i * 600 + 1),
                    0,
                ));
            }
        }
        arrivals.sort_by_key(|a| a.pkt.arrival);

        let mut sw1 = Switch::new(SwitchConfig::single_port(40.0, 32_768));
        let mut tap = DepartureTap::new(0, 0, 2_000);
        let mut sink1 = pq_switch::TelemetrySink::new();
        {
            let mut hook = fleet.hook(10);
            let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut tap, &mut hook, &mut sink1];
            sw1.run(arrivals, &mut hooks, 500_000);
        }
        let mut sw2 = Switch::new(SwitchConfig::single_port(10.0, 32_768));
        let mut sink2 = pq_switch::TelemetrySink::new();
        {
            let mut hook = fleet.hook(20);
            let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut hook, &mut sink2];
            sw2.run(tap.into_arrivals(), &mut hooks, 500_000);
        }

        // Build the victim's path record from each hop's telemetry.
        let v1 = sink1
            .records
            .iter()
            .filter(|r| r.flow == FlowId(0))
            .max_by_key(|r| r.meta.enq_timestamp)
            .copied()
            .unwrap();
        let v2 = sink2
            .records
            .iter()
            .filter(|r| r.flow == FlowId(0))
            .max_by_key(|r| r.meta.deq_timedelta)
            .copied()
            .unwrap();
        let path = vec![
            HopRecord {
                switch: 10,
                port: 0,
                enq_timestamp: v1.meta.enq_timestamp,
                deq_timestamp: v1.deq_timestamp(),
            },
            HopRecord {
                switch: 20,
                port: 0,
                enq_timestamp: v2.meta.enq_timestamp,
                deq_timestamp: v2.deq_timestamp(),
            },
        ];
        let result = fleet.diagnose_path(&path);
        assert_eq!(result.hops.len(), 2);
        assert_eq!(result.dominant_hop, 1, "hop 20 is the bottleneck");
        assert!(result.hops[1].delay_share > 0.9);
        // The bottleneck hop's diagnosis names the competitor.
        let top = result.hops[1].diagnosis.top_direct(1);
        assert_eq!(top[0].0, FlowId(1));
        assert!(result.total_delay > 0);
    }

    #[test]
    fn undeployed_switches_are_skipped() {
        let mut fleet = Fleet::new();
        fleet.deploy(1, config());
        let path = vec![
            HopRecord {
                switch: 1,
                port: 0,
                enq_timestamp: 0,
                deq_timestamp: 100,
            },
            HopRecord {
                switch: 99, // not deployed
                port: 0,
                enq_timestamp: 0,
                deq_timestamp: 1_000,
            },
        ];
        let result = fleet.diagnose_path(&path);
        assert_eq!(result.hops.len(), 1);
        assert_eq!(result.total_delay, 1_100);
        assert!(!fleet.is_empty());
        assert!(fleet.instance(99).is_none());
    }

    #[test]
    fn metrics_rollup_agrees_with_health_rollup() {
        let mut fleet = Fleet::new();
        fleet.deploy(1, config());
        fleet.deploy(2, config());
        fleet
            .instance_mut(1)
            .unwrap()
            .analysis_mut()
            .on_tick(500_000);
        fleet
            .instance_mut(2)
            .unwrap()
            .analysis_mut()
            .on_tick(500_000);
        fleet
            .instance_mut(2)
            .unwrap()
            .analysis_mut()
            .on_tick(1_000_000);
        let health = fleet.health();
        let metrics = fleet.metrics();
        assert_eq!(health.total.polls_attempted, 3);
        assert_eq!(
            metrics.counter(pq_telemetry::names::CONTROL_POLLS_ATTEMPTED, &[]),
            Some(health.total.polls_attempted)
        );
        assert_eq!(
            metrics.counter(pq_telemetry::names::CONTROL_CHECKPOINTS_STORED, &[]),
            Some(health.total.checkpoints_stored)
        );
    }

    #[test]
    fn zero_delay_path_has_zero_shares() {
        let mut fleet = Fleet::new();
        fleet.deploy(1, config());
        let path = vec![HopRecord {
            switch: 1,
            port: 0,
            enq_timestamp: 50,
            deq_timestamp: 50,
        }];
        let result = fleet.diagnose_path(&path);
        assert_eq!(result.hops[0].delay_share, 0.0);
    }
}
