//! The switch-pipeline attachment point for RTT measurement.
//!
//! [`RttHook`] implements `pq_switch::QueueHooks` and runs alongside the
//! time-window registers: every enqueue resolves the packet's `seqno`
//! against the workload's observation table and feeds the per-port
//! [`FlowRttTable`]. Measurement happens at enqueue — the same pipeline
//! stage where hardware would parse the transport header — so RTT and
//! queue-depth diagnosis share one clock.

use crate::obs::RttObs;
use crate::report::RttReport;
use crate::table::{FlowRttTable, TableConfig};
use pq_packet::{Nanos, SimPacket};
use pq_switch::QueueHooks;
use pq_telemetry::{names, Telemetry};
use std::collections::BTreeMap;

/// Per-port measurement state.
struct PortState {
    table: FlowRttTable,
    min_t: Nanos,
    max_t: Nanos,
    emitted_samples: u64,
}

/// A queue hook that measures per-flow RTT on every port it observes.
pub struct RttHook<'a> {
    obs: &'a [RttObs],
    config: TableConfig,
    ports: BTreeMap<u16, PortState>,
    telemetry: Option<Telemetry>,
}

impl<'a> RttHook<'a> {
    /// Build a hook over the workload's observation table.
    pub fn new(obs: &'a [RttObs], config: TableConfig) -> RttHook<'a> {
        RttHook {
            obs,
            config,
            ports: BTreeMap::new(),
            telemetry: None,
        }
    }

    /// Attach a telemetry plane; `pq_rtt_*` series are recorded per port,
    /// with the flow id stamped as each sample's exemplar so a watch
    /// alert on an RTT quantile points straight at the offending flow.
    pub fn set_telemetry(&mut self, plane: &Telemetry) {
        self.telemetry = Some(plane.clone());
    }

    /// Snapshot one report per observed port, sorted by port.
    pub fn reports(&self) -> Vec<RttReport> {
        self.ports
            .iter()
            .map(|(port, st)| RttReport::from_table(*port, st.min_t, st.max_t, &st.table))
            .collect()
    }

    fn publish(&mut self, port: u16) {
        let Some(tel) = &self.telemetry else { return };
        let st = self.ports.get_mut(&port).expect("port state exists");
        let port_label = port.to_string();
        let labels = [("port", port_label.as_str())];
        let reg = tel.registry();
        let hist = reg.histogram(names::RTT_SAMPLE_NS, &labels);
        let samples = st.table.samples();
        let new = &samples[st.emitted_samples as usize..];
        for s in new {
            hist.record_exemplar(s.rtt_ns, s.flow as u128);
        }
        reg.counter(names::RTT_SAMPLES, &labels)
            .add(new.len() as u64);
        st.emitted_samples = samples.len() as u64;
        let c = st.table.counters();
        reg.gauge(names::RTT_COLLISIONS, &labels).set(c.collisions);
        reg.gauge(names::RTT_EVICTIONS, &labels).set(c.evictions);
        reg.gauge(names::RTT_SAMPLE_DROPS, &labels)
            .set(c.sample_drops);
    }
}

impl QueueHooks for RttHook<'_> {
    fn on_enqueue(&mut self, pkt: &SimPacket, port: u16, _depth_after: u32, now: Nanos) {
        let Some(obs) = self.obs.get(pkt.seqno as usize) else {
            return; // packet outside the observed workload
        };
        if obs.flow != pkt.flow.0 {
            return; // stale seqno stamp; not ours
        }
        let config = self.config;
        let st = self.ports.entry(port).or_insert_with(|| PortState {
            table: FlowRttTable::new(config),
            min_t: now,
            max_t: now,
            emitted_samples: 0,
        });
        st.min_t = st.min_t.min(now);
        st.max_t = st.max_t.max(now);
        st.table.observe(obs, now);
        if self.telemetry.is_some() {
            self.publish(port);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quic::RttWorkload;
    use pq_switch::{Switch, SwitchConfig};

    #[test]
    fn workload_through_switch_measures_every_port() {
        let cfg = RttWorkload {
            flows: 32,
            pkts_per_flow: 64,
            ports: 2,
            ..Default::default()
        };
        let (reports, _) = cfg.measure();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.sample_count() > 0, "port {} has no samples", r.port);
            assert!(r.max_t > r.min_t);
        }
    }

    #[test]
    fn estimates_track_ground_truth() {
        let cfg = RttWorkload {
            flows: 32,
            pkts_per_flow: 128,
            ports: 1,
            loss: 0.0,
            reorder: 0.0,
            ..Default::default()
        };
        let (reports, truth) = cfg.measure();
        let r = &reports[0];
        let mut graded = 0;
        for t in &truth {
            let Some(f) = r.flows.iter().find(|f| f.flow == t.flow) else {
                continue;
            };
            if f.hist.count < 8 {
                continue; // slow spin flows yield few edges in a short run
            }
            let est = f.hist.mean();
            let err = (est - t.rtt_ns as f64).abs() / t.rtt_ns as f64;
            assert!(
                err < 0.10,
                "flow {} est {} truth {} err {err}",
                t.flow,
                est,
                t.rtt_ns
            );
            graded += 1;
        }
        assert!(graded >= 12, "only {graded} flows graded");
    }

    #[test]
    fn telemetry_series_appear_with_exemplars() {
        let cfg = RttWorkload {
            flows: 8,
            pkts_per_flow: 32,
            ports: 1,
            ..Default::default()
        };
        let trace = cfg.generate();
        let tel = Telemetry::default();
        let mut sw = Switch::new(SwitchConfig::default());
        let mut hook = RttHook::new(&trace.obs, TableConfig::default());
        hook.set_telemetry(&tel);
        {
            let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut hook];
            sw.run(trace.arrivals.iter().cloned(), &mut hooks, 1_000_000);
        }
        let snap = tel.registry().snapshot();
        let total = snap.counter_sum(names::RTT_SAMPLES);
        assert!(total > 0);
        let hist = snap
            .histogram(names::RTT_SAMPLE_NS, &[("port", "0")])
            .unwrap();
        assert_eq!(hist.count, total);
        assert!(hist.worst_exemplar().is_some());
    }
}
