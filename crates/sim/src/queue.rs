//! Deterministic event queue.
//!
//! Events that are scheduled for the same timestamp are delivered in the
//! order they were pushed (FIFO), which makes every simulation in the
//! workspace bit-reproducible regardless of payload type or hash seeds.
//!
//! Timestamps are cycle-granular [`Time`], the one clock of every
//! simulation here, the rack's serving engine included.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;

#[derive(Debug, PartialEq, Eq)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E: Eq> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E: Eq> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-heap of timestamped events with FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use dpu_sim::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.push(Time::from_cycles(5), 'b');
/// q.push(Time::from_cycles(5), 'c');
/// q.push(Time::from_cycles(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    now: Time,
}

impl<E: Eq> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, now: Time::ZERO }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: the simulation may
    /// never schedule into its own past.
    pub fn push(&mut self, at: Time, event: E) {
        assert!(at >= self.now, "event scheduled in the past: {at:?} < now {:?}", self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time: at, seq, event }));
    }

    /// Removes and returns the earliest event, advancing the queue's notion
    /// of "now" to its timestamp. Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// The timestamp of the most recently popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E: Eq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_cycles(30), 3);
        q.push(Time::from_cycles(10), 1);
        q.push(Time::from_cycles(20), 2);
        assert_eq!(q.pop(), Some((Time::from_cycles(10), 1)));
        assert_eq!(q.pop(), Some((Time::from_cycles(20), 2)));
        assert_eq!(q.pop(), Some((Time::from_cycles(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_cycles(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn now_tracks_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.push(Time::from_cycles(42), ());
        q.pop();
        assert_eq!(q.now(), Time::from_cycles(42));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(Time::from_cycles(10), ());
        q.pop();
        q.push(Time::from_cycles(5), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(Time::from_cycles(9), 'x');
        assert_eq!(q.peek_time(), Some(Time::from_cycles(9)));
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_cycles(1), 'a');
        q.push(Time::from_cycles(5), 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(Time::from_cycles(3), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }
}
