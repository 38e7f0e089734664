//! Ingress forwarding: a match-action table from flow to egress port.
//!
//! The experiments usually pre-address packets (the trace generator plays
//! ingress), but byte-level pipelines — pcap imports, the examples that
//! parse real frames — need the switch to *decide* the egress port. This is
//! the L3/ECMP-ish ingress stage: exact-match on the 5-tuple, then
//! longest-prefix-style match on the destination address, then an optional
//! hash-spread default group (ECMP), then drop.

use pq_packet::{FlowId, FlowKey};
use std::collections::HashMap;

/// Forwarding decision sources, in match priority order.
#[derive(Debug, Clone)]
pub struct Router {
    /// Exact 5-tuple entries.
    by_flow: HashMap<FlowKey, u16>,
    /// Destination /24 entries (first three octets).
    by_dst_net: HashMap<[u8; 3], u16>,
    /// ECMP group used when nothing matches (empty = drop).
    default_group: Vec<u16>,
}

impl Router {
    /// A router that drops everything unmatched.
    pub fn new() -> Router {
        Router {
            by_flow: HashMap::new(),
            by_dst_net: HashMap::new(),
            default_group: Vec::new(),
        }
    }

    /// A router that sends everything unmatched to one port.
    pub fn with_default(port: u16) -> Router {
        Router {
            by_flow: HashMap::new(),
            by_dst_net: HashMap::new(),
            default_group: vec![port],
        }
    }

    /// Install an exact 5-tuple route.
    pub fn add_flow_route(&mut self, key: FlowKey, port: u16) {
        self.by_flow.insert(key, port);
    }

    /// Install a destination /24 route.
    pub fn add_dst_net_route(&mut self, net: [u8; 3], port: u16) {
        self.by_dst_net.insert(net, port);
    }

    /// Set the ECMP default group (hash-spread across these ports).
    pub fn set_default_group(&mut self, ports: Vec<u16>) {
        self.default_group = ports;
    }

    /// Route a packet by its tuple. `None` = drop at ingress.
    pub fn route(&self, key: &FlowKey) -> Option<u16> {
        if let Some(port) = self.by_flow.get(key) {
            return Some(*port);
        }
        if let Some(port) = self.by_dst_net.get(&[key.dst[0], key.dst[1], key.dst[2]]) {
            return Some(*port);
        }
        if self.default_group.is_empty() {
            return None;
        }
        // ECMP: flow-signature hash keeps a flow on one path.
        let idx = key.signature() as usize % self.default_group.len();
        Some(self.default_group[idx])
    }
}

impl Default for Router {
    fn default() -> Self {
        Router::new()
    }
}

/// A routed arrival stream: resolve ports for interned flows via a
/// resolver closure (usually `FlowTable::resolve`). Returns the routed
/// arrivals and how many were dropped at ingress.
pub fn route_arrivals<F>(
    arrivals: impl IntoIterator<Item = crate::Arrival>,
    router: &Router,
    resolve: F,
) -> (Vec<crate::Arrival>, usize)
where
    F: Fn(FlowId) -> Option<FlowKey>,
{
    let mut routed = Vec::new();
    let mut dropped = 0usize;
    for mut a in arrivals {
        match resolve(a.pkt.flow).and_then(|key| router.route(&key)) {
            Some(port) => {
                a.port = port;
                routed.push(a);
            }
            None => dropped += 1,
        }
    }
    (routed, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_packet::ipv4::Address;

    fn key(dst_last: u8, sport: u16) -> FlowKey {
        FlowKey::tcp(
            Address::new(10, 0, 0, 1),
            sport,
            Address::new(10, 200, 7, dst_last),
            80,
        )
    }

    #[test]
    fn exact_match_wins_over_net_and_default() {
        let mut r = Router::with_default(9);
        r.add_dst_net_route([10, 200, 7], 5);
        r.add_flow_route(key(1, 1000), 3);
        assert_eq!(r.route(&key(1, 1000)), Some(3)); // exact
        assert_eq!(r.route(&key(1, 1001)), Some(5)); // /24
        assert_eq!(
            r.route(&FlowKey::tcp(
                Address::new(10, 0, 0, 1),
                1,
                Address::new(1, 2, 3, 4),
                80
            )),
            Some(9) // default
        );
    }

    #[test]
    fn no_default_means_drop() {
        let r = Router::new();
        assert_eq!(r.route(&key(1, 1)), None);
    }

    #[test]
    fn ecmp_is_flow_sticky_and_spreads() {
        let mut r = Router::new();
        r.set_default_group(vec![0, 1, 2, 3]);
        let mut used = std::collections::HashSet::new();
        for sport in 0..64u16 {
            let k = key(1, sport);
            let first = r.route(&k).unwrap();
            // Stickiness: same flow always gets the same port.
            for _ in 0..3 {
                assert_eq!(r.route(&k), Some(first));
            }
            used.insert(first);
        }
        assert!(used.len() >= 3, "ECMP barely spread: {used:?}");
    }

    #[test]
    fn route_arrivals_drops_unroutable() {
        use pq_packet::{FlowTable, SimPacket};
        let mut table = FlowTable::new();
        let routable = table.intern(key(1, 1));
        let unroutable = table.intern(FlowKey::tcp(
            Address::new(10, 0, 0, 2),
            2,
            Address::new(99, 99, 99, 99),
            80,
        ));
        let mut r = Router::new();
        r.add_dst_net_route([10, 200, 7], 4);
        let arrivals = vec![
            crate::Arrival::new(SimPacket::new(routable, 100, 0), 0),
            crate::Arrival::new(SimPacket::new(unroutable, 100, 1), 0),
        ];
        let (routed, dropped) = route_arrivals(arrivals, &r, |id| table.resolve(id).copied());
        assert_eq!(routed.len(), 1);
        assert_eq!(routed[0].port, 4);
        assert_eq!(dropped, 1);
    }
}
