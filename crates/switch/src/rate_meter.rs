//! Per-interval throughput metering — the counter-polling telemetry that
//! complements [`crate::depth_sampler`].
//!
//! Switches expose per-port byte/packet counters; operators poll them to
//! build utilization series. This hook does the same: it accumulates bytes
//! and packets between control-plane ticks and emits one reading per
//! interval for its watched port.

use crate::hooks::QueueHooks;
use pq_packet::{Nanos, SimPacket};
use serde::{Deserialize, Serialize};

/// One polling interval's reading.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateSample {
    /// End of the interval (the tick instant).
    pub at: Nanos,
    /// Bytes transmitted during the interval.
    pub bytes: u64,
    /// Packets transmitted during the interval.
    pub packets: u64,
    /// Mean rate over the interval in Gbps (0 for the first, unbounded
    /// interval).
    pub gbps: f64,
}

/// Meters one egress port's transmit rate per tick interval.
#[derive(Debug)]
pub struct RateMeter {
    /// Watched port.
    pub port: u16,
    /// Completed interval readings, in time order.
    pub samples: Vec<RateSample>,
    bytes_acc: u64,
    packets_acc: u64,
    last_tick: Option<Nanos>,
}

impl RateMeter {
    /// Watch `port`.
    pub fn new(port: u16) -> RateMeter {
        RateMeter {
            port,
            samples: Vec::new(),
            bytes_acc: 0,
            packets_acc: 0,
            last_tick: None,
        }
    }

    /// Peak interval rate observed, Gbps.
    pub fn peak_gbps(&self) -> f64 {
        self.samples.iter().map(|s| s.gbps).fold(0.0, f64::max)
    }
}

impl QueueHooks for RateMeter {
    fn on_dequeue(&mut self, pkt: &SimPacket, port: u16, _depth_after: u32, _now: Nanos) {
        if port == self.port {
            self.bytes_acc += u64::from(pkt.len);
            self.packets_acc += 1;
        }
    }

    fn on_tick(&mut self, now: Nanos) {
        let gbps = match self.last_tick {
            Some(prev) if now > prev => self.bytes_acc as f64 * 8.0 / (now - prev) as f64,
            _ => 0.0,
        };
        self.samples.push(RateSample {
            at: now,
            bytes: self.bytes_acc,
            packets: self.packets_acc,
            gbps,
        });
        self.bytes_acc = 0;
        self.packets_acc = 0;
        self.last_tick = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::{Arrival, Switch, SwitchConfig};
    use pq_packet::FlowId;

    #[test]
    fn meters_line_rate_under_saturation() {
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 32_768));
        let mut meter = RateMeter::new(0);
        // Saturating: arrivals at 2x line rate for 2 ms.
        let arrivals: Vec<Arrival> = (0..3_000u64)
            .map(|i| Arrival::new(SimPacket::new(FlowId(0), 1500, i * 600), 0))
            .collect();
        {
            let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut meter];
            sw.run(arrivals, &mut hooks, 200_000);
        }
        assert!(meter.samples.len() > 5);
        // During the saturated stretch the port runs at ~10 Gbps.
        assert!(
            (9.5..=10.2).contains(&meter.peak_gbps()),
            "peak {}",
            meter.peak_gbps()
        );
        let total_pkts: u64 = meter.samples.iter().map(|s| s.packets).sum();
        assert_eq!(total_pkts, 3_000);
    }

    #[test]
    fn idle_intervals_read_zero() {
        let mut sw = Switch::new(SwitchConfig::single_port(10.0, 1_000));
        let mut meter = RateMeter::new(0);
        {
            let mut hooks: Vec<&mut dyn QueueHooks> = vec![&mut meter];
            // One packet at t=0, then silence until 1 ms.
            sw.inject(
                Arrival::new(SimPacket::new(FlowId(0), 1500, 0), 0),
                &mut hooks,
            );
            sw.drain_until(1_000_000, &mut hooks);
            meter.on_tick(500_000);
            meter.on_tick(1_000_000);
        }
        assert_eq!(meter.samples[0].packets, 1);
        assert_eq!(meter.samples[1].packets, 0);
        assert_eq!(meter.samples[1].gbps, 0.0);
    }

    #[test]
    fn port_filtering() {
        let mut meter = RateMeter::new(5);
        let pkt = SimPacket::new(FlowId(0), 1000, 0);
        meter.on_dequeue(&pkt, 4, 0, 10);
        meter.on_dequeue(&pkt, 5, 0, 20);
        meter.on_tick(100);
        assert_eq!(meter.samples[0].bytes, 1000);
    }
}
