//! Stateful register arrays with match-action-stage access discipline.
//!
//! A Tofino match-action stage can perform exactly one read-modify-write on
//! one index of a register array per packet. PrintQueue's data structures
//! (Algorithm 1, the queue monitor) are built under that constraint, and an
//! implementation that quietly did two dependent accesses per packet would
//! be unimplementable on the hardware. [`RegisterArray`] therefore tracks,
//! in debug builds, how many data-plane accesses each packet performs and
//! asserts the single-access rule; the control plane uses separate bulk-read
//! methods that model PCIe polling instead.

use serde::{Deserialize, Serialize};

/// A register array holding `len` cells of `T`.
///
/// `T` is `Copy + Default`; `T::default()` is the reset value the driver
/// writes when the control plane clears the array.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegisterArray<T: Copy + Default> {
    cells: Vec<T>,
    /// Debug-only guard: set once a data-plane access happens for the
    /// current packet, cleared by [`RegisterArray::begin_packet`].
    #[serde(skip)]
    accessed_this_packet: bool,
    /// When true (the default), the single-access discipline is enforced in
    /// debug builds.
    #[serde(skip, default = "default_true")]
    enforce_discipline: bool,
}

fn default_true() -> bool {
    true
}

impl<T: Copy + Default> RegisterArray<T> {
    /// Allocate an array of `len` default-valued cells.
    pub fn new(len: usize) -> RegisterArray<T> {
        RegisterArray {
            cells: vec![T::default(); len],
            accessed_this_packet: false,
            enforce_discipline: true,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the array has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Disable the single-access assertion (for structures that model
    /// multiple physical arrays behind one logical type).
    pub fn without_discipline(mut self) -> Self {
        self.enforce_discipline = false;
        self
    }

    /// Mark the start of a new packet's pipeline traversal, re-arming the
    /// single-access assertion.
    pub fn begin_packet(&mut self) {
        self.accessed_this_packet = false;
    }

    fn note_access(&mut self) {
        if self.enforce_discipline {
            debug_assert!(
                !self.accessed_this_packet,
                "register array accessed twice by one packet — \
                 not implementable in a single match-action stage"
            );
        }
        self.accessed_this_packet = true;
    }

    /// Data-plane read-modify-write of one cell. Returns whatever the
    /// closure returns (the value carried forward in packet metadata).
    pub fn rmw<R>(&mut self, index: usize, f: impl FnOnce(&mut T) -> R) -> R {
        self.note_access();
        f(&mut self.cells[index])
    }

    /// Data-plane read of one cell (counts as the stage's single access).
    pub fn read(&mut self, index: usize) -> T {
        self.note_access();
        self.cells[index]
    }

    /// Data-plane blind write of one cell (counts as the single access).
    pub fn write(&mut self, index: usize, value: T) {
        self.note_access();
        self.cells[index] = value;
    }

    /// Control-plane bulk read (PCIe poll), without copying. Does not
    /// count against the per-packet discipline.
    pub fn as_slice(&self) -> &[T] {
        &self.cells
    }

    /// Control-plane reset of every cell to the default value.
    pub fn clear(&mut self) {
        for cell in &mut self.cells {
            *cell = T::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_reads_and_writes() {
        let mut reg: RegisterArray<u32> = RegisterArray::new(4);
        reg.begin_packet();
        let old = reg.rmw(2, |cell| {
            let old = *cell;
            *cell = 7;
            old
        });
        assert_eq!(old, 0);
        assert_eq!(reg.as_slice(), &[0, 0, 7, 0]);
    }

    #[test]
    fn clear_resets_to_default() {
        let mut reg: RegisterArray<u32> = RegisterArray::new(3);
        reg.begin_packet();
        reg.write(1, 42);
        reg.clear();
        assert_eq!(reg.as_slice(), &[0, 0, 0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "accessed twice")]
    fn double_access_panics_in_debug() {
        let mut reg: RegisterArray<u32> = RegisterArray::new(2);
        reg.begin_packet();
        reg.write(0, 1);
        reg.write(1, 2); // second access for the same packet
    }

    #[test]
    fn begin_packet_rearms() {
        let mut reg: RegisterArray<u32> = RegisterArray::new(2);
        reg.begin_packet();
        reg.write(0, 1);
        reg.begin_packet();
        reg.write(1, 2); // new packet, allowed
        assert_eq!(reg.as_slice(), &[1, 2]);
    }

    #[test]
    fn without_discipline_allows_multiple_accesses() {
        let mut reg: RegisterArray<u32> = RegisterArray::new(2).without_discipline();
        reg.begin_packet();
        reg.write(0, 1);
        reg.write(1, 2);
        assert_eq!(reg.as_slice(), &[1, 2]);
    }
}
