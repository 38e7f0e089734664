//! The physical register-index layout of Figure 8 and §6.1.
//!
//! PrintQueue allocates each structure as one large register array shared by
//! all activated ports. The index decomposes, high bit to low bit, as:
//!
//! ```text
//!   [ dp-query flip : 1 ][ periodic flip : 1 ][ port prefix : q ][ cell : k ]
//! ```
//!
//! * the **highest** bit selects the special (data-plane query) copy;
//! * the **second-highest** bit alternates between the two periodic copies
//!   every `t_set` (the Mantis freeze);
//! * the next `q = log2(r(#ports))` bits select the port's partition — the
//!   §6.1 ingress flow table matches on the egress port and returns this
//!   prefix;
//! * the low `k` bits address the cell within the partition.
//!
//! The simulator's data path keeps logical per-port structures for clarity
//! (see [`crate::control`]), but this module computes the physical mapping
//! so the SRAM accounting, the port-gating table, and any hardware
//! translation stay faithful — and it is property-tested to be a bijection.

use crate::resources::r_ports;
use serde::Serialize;

/// The §6.1 ingress gate: maps an egress port to its register prefix, or
/// refuses (PrintQueue disabled on that port).
#[derive(Debug, Clone, Serialize)]
pub struct PortGateTable {
    /// Activated ports in prefix order: `prefix = position in this list`.
    ports: Vec<u16>,
    /// `q`: number of prefix bits (`log2(r(#ports))`).
    q: u8,
}

impl PortGateTable {
    /// Build from the activated port list. Prefixes are assigned in list
    /// order; the partition count rounds up to a power of two (`r(#ports)`).
    pub fn new(ports: &[u16]) -> PortGateTable {
        assert!(!ports.is_empty(), "activate at least one port");
        let r = r_ports(ports.len() as u32);
        PortGateTable {
            ports: ports.to_vec(),
            q: r.trailing_zeros() as u8,
        }
    }

    /// Number of prefix bits.
    pub fn q(&self) -> u8 {
        self.q
    }

    /// Partition count (`r(#ports)`).
    pub fn partitions(&self) -> u32 {
        1 << self.q
    }

    /// The flow-table match: egress port → register prefix. `None` when the
    /// port is not activated ("If no matching is found, the packet is
    /// ignored", §6.1).
    pub fn prefix_of(&self, egress_port: u16) -> Option<u32> {
        self.ports
            .iter()
            .position(|p| *p == egress_port)
            .map(|i| i as u32)
    }
}

/// The full index decomposition for one register access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RegisterIndex {
    /// Highest bit: the data-plane-query (special) copy.
    pub special: bool,
    /// Second-highest bit: which periodic copy.
    pub periodic_copy: bool,
    /// Port partition prefix (`q` bits).
    pub port_prefix: u32,
    /// Cell index within the partition (`k` bits).
    pub cell: u32,
}

/// Compose/decompose physical indices for arrays of `2^k` cells per
/// partition and `q` prefix bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RegisterLayout {
    /// Cell bits.
    pub k: u8,
    /// Port-prefix bits.
    pub q: u8,
}

impl RegisterLayout {
    /// Construct, validating the widths fit a 32-bit index with the two
    /// flip bits.
    pub fn new(k: u8, q: u8) -> RegisterLayout {
        assert!(
            u32::from(k) + u32::from(q) + 2 <= 32,
            "index exceeds 32 bits"
        );
        RegisterLayout { k, q }
    }

    /// Total physical cells across both flip bits and all partitions.
    pub fn total_cells(&self) -> u64 {
        1u64 << (self.k + self.q + 2)
    }

    /// Compose the physical index.
    pub fn compose(&self, idx: RegisterIndex) -> u32 {
        debug_assert!(idx.port_prefix < (1 << self.q), "prefix out of range");
        debug_assert!(idx.cell < (1 << self.k), "cell out of range");
        (u32::from(idx.special) << (self.k + self.q + 1))
            | (u32::from(idx.periodic_copy) << (self.k + self.q))
            | (idx.port_prefix << self.k)
            | idx.cell
    }

    /// Decompose a physical index.
    pub fn decompose(&self, physical: u32) -> RegisterIndex {
        RegisterIndex {
            special: (physical >> (self.k + self.q + 1)) & 1 == 1,
            periodic_copy: (physical >> (self.k + self.q)) & 1 == 1,
            port_prefix: (physical >> self.k) & ((1 << self.q) - 1),
            cell: physical & ((1 << self.k) - 1),
        }
    }

    /// The Figure 8 transitions, as bit operations on a physical index:
    /// flip the periodic copy (second-highest bit).
    pub fn flip_periodic(&self, physical: u32) -> u32 {
        physical ^ (1 << (self.k + self.q))
    }

    /// Flip into/out of the special copy (highest bit).
    pub fn flip_special(&self, physical: u32) -> u32 {
        physical ^ (1 << (self.k + self.q + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_table_prefixes_in_order() {
        let gate = PortGateTable::new(&[140, 141, 144]);
        assert_eq!(gate.partitions(), 4); // rounds 3 → 4
        assert_eq!(gate.q(), 2);
        assert_eq!(gate.prefix_of(140), Some(0));
        assert_eq!(gate.prefix_of(144), Some(2));
        assert_eq!(gate.prefix_of(999), None, "unactivated ports are ignored");
    }

    #[test]
    fn single_port_has_zero_prefix_bits() {
        let gate = PortGateTable::new(&[7]);
        assert_eq!(gate.q(), 0);
        assert_eq!(gate.partitions(), 1);
    }

    #[test]
    fn compose_decompose_roundtrip() {
        let layout = RegisterLayout::new(12, 2);
        for special in [false, true] {
            for copy in [false, true] {
                for prefix in [0u32, 1, 3] {
                    for cell in [0u32, 1, 4095] {
                        let idx = RegisterIndex {
                            special,
                            periodic_copy: copy,
                            port_prefix: prefix,
                            cell,
                        };
                        assert_eq!(layout.decompose(layout.compose(idx)), idx);
                    }
                }
            }
        }
    }

    #[test]
    fn flips_touch_only_their_bit() {
        let layout = RegisterLayout::new(12, 2);
        let idx = RegisterIndex {
            special: false,
            periodic_copy: false,
            port_prefix: 2,
            cell: 1234,
        };
        let physical = layout.compose(idx);
        let flipped = layout.decompose(layout.flip_periodic(physical));
        assert_eq!(
            flipped,
            RegisterIndex {
                periodic_copy: true,
                ..idx
            }
        );
        let special = layout.decompose(layout.flip_special(physical));
        assert_eq!(
            special,
            RegisterIndex {
                special: true,
                ..idx
            }
        );
        // Double flip restores.
        assert_eq!(
            layout.flip_periodic(layout.flip_periodic(physical)),
            physical
        );
    }

    #[test]
    fn total_cells_matches_widths() {
        // k=12, q=2 → 4096 cells × 4 partitions × 4 copies (2 flip bits).
        assert_eq!(RegisterLayout::new(12, 2).total_cells(), 4096 * 4 * 4);
    }

    #[test]
    fn composition_is_injective_across_copies() {
        let layout = RegisterLayout::new(4, 1);
        let mut seen = std::collections::HashSet::new();
        for special in [false, true] {
            for copy in [false, true] {
                for prefix in 0..2u32 {
                    for cell in 0..16u32 {
                        let physical = layout.compose(RegisterIndex {
                            special,
                            periodic_copy: copy,
                            port_prefix: prefix,
                            cell,
                        });
                        assert!(seen.insert(physical), "collision at {physical}");
                    }
                }
            }
        }
        assert_eq!(seen.len() as u64, layout.total_cells());
    }
}
