//! The event queue.
//!
//! Events are ordered by `(time, sequence)`, where `sequence` is a
//! monotonically increasing insertion counter. Breaking ties by insertion
//! order (rather than arbitrarily, as a plain binary heap would) is what
//! makes simulations deterministic and therefore reproducible: two events
//! scheduled for the same instant are always delivered in the order they
//! were scheduled.
//!
//! The queue is a binary heap over the full `(time, seq)` key: O(log n)
//! schedule and pop, no up-front allocation, and the fastest of the
//! structures measured on the paper-sized runs the simulator spends most of
//! its time in.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event that has been scheduled for delivery.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Delivery time.
    pub time: SimTime,
    /// Insertion sequence number (tie-breaker; unique per queue).
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) at the top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedule `event` for delivery at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(ScheduledEvent {
            time: at,
            seq,
            event,
        });
    }

    /// Schedule `event` for delivery `after` the given `now`.
    pub fn schedule_after(&mut self, now: SimTime, after: SimDuration, event: E) {
        self.schedule_at(now.saturating_add(after), event);
    }

    /// Remove and return the next event in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Drop all pending events (the sequence counter keeps advancing so that
    /// determinism is preserved if the queue is reused).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule_at(SimTime::from_secs(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_after_adds_to_now() {
        let mut q = EventQueue::new();
        q.schedule_after(SimTime::from_secs(5), SimDuration::from_millis(250), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5_250_000_000)));
    }

    #[test]
    fn counters_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime::ZERO, 1);
        q.schedule_at(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), 10);
        q.schedule_at(SimTime::from_secs(1), 1);
        assert_eq!(q.pop().unwrap().event, 1);
        q.schedule_at(SimTime::from_secs(5), 5);
        q.schedule_at(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 5);
        assert_eq!(q.pop().unwrap().event, 10);
        assert!(q.pop().is_none());
    }

    #[test]
    fn reuse_after_clear_keeps_seq_and_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1_000_000), 1);
        q.schedule_at(SimTime::from_nanos(5), 0);
        assert_eq!(q.pop().unwrap().event, 0);
        assert_eq!(q.pop().unwrap().event, 1);
        q.schedule_at(SimTime::from_secs(2_000_000), 9);
        q.clear();
        assert!(q.is_empty());
        // Earlier than anything delivered before the clear: still ordered,
        // and the sequence counter carried on across the clear.
        q.schedule_at(SimTime::from_secs(3), 3);
        q.schedule_at(SimTime::from_secs(1), 2);
        q.schedule_at(SimTime::from_secs(1), 4);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| (s.seq, s.event))).collect();
        assert_eq!(popped, vec![(4, 2), (5, 4), (3, 3)]);
    }
}
