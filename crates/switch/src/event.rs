//! The event calendar driving the discrete-event simulation.
//!
//! Only one kind of internal event exists: a port finishing the transmission
//! of a packet. Packet arrivals come from the sorted input stream and
//! periodic control-plane ticks are synthesized by the run loop. A port's
//! serializer sends one packet at a time, so the calendar never holds two
//! completions for one port: it is a list of at most `ports` entries, kept
//! in firing order.

use pq_packet::Nanos;
use std::collections::VecDeque;

/// Pending transmission completions, earliest first; completions at the
/// same nanosecond fire in the order their transmissions started, keeping
/// runs reproducible.
#[derive(Debug, Default)]
pub struct Calendar {
    /// `(time, port)`, ascending by time, insertion order among equals.
    pending: VecDeque<(Nanos, u16)>,
}

impl Calendar {
    /// Create an empty calendar.
    pub fn new() -> Calendar {
        Calendar::default()
    }

    /// `port`, which has no completion pending, finishes its transmission
    /// at absolute time `at`.
    #[inline]
    pub fn schedule(&mut self, at: Nanos, port: u16) {
        debug_assert!(
            self.pending.iter().all(|&(_, p)| p != port),
            "port {port} already has a completion pending"
        );
        // A transmission that starts later mostly ends later.
        if self.pending.back().is_none_or(|&(t, _)| t <= at) {
            self.pending.push_back((at, port));
        } else {
            let slot = self.pending.partition_point(|&(t, _)| t <= at);
            self.pending.insert(slot, (at, port));
        }
    }

    /// Time of the earliest pending completion, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Nanos> {
        self.pending.front().map(|&(t, _)| t)
    }

    /// Pop the earliest pending completion: its time and port.
    #[inline]
    pub fn pop(&mut self) -> Option<(Nanos, u16)> {
        self.pending.pop_front()
    }

    /// Number of pending completions.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(30, 3);
        cal.schedule(10, 1);
        cal.schedule(20, 2);
        let order: Vec<Nanos> = std::iter::from_fn(|| cal.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        // Ports 9, 1 and 4 start transmissions, in that order, that all
        // complete at t=5, around entries before and after.
        let mut cal = Calendar::new();
        cal.schedule(7, 0);
        cal.schedule(5, 9);
        cal.schedule(5, 1);
        cal.schedule(2, 6);
        cal.schedule(5, 4);
        let order: Vec<(Nanos, u16)> = std::iter::from_fn(|| cal.pop()).collect();
        assert_eq!(order, vec![(2, 6), (5, 9), (5, 1), (5, 4), (7, 0)]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut cal = Calendar::new();
        assert_eq!(cal.peek_time(), None);
        cal.schedule(42, 0);
        assert_eq!(cal.peek_time(), Some(42));
        assert_eq!(cal.pop().unwrap().0, 42);
        assert!(cal.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already has a completion pending")]
    fn one_pending_completion_per_port() {
        let mut cal = Calendar::new();
        cal.schedule(10, 3);
        cal.schedule(20, 3);
    }
}
