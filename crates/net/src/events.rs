//! Discrete-event scheduler.
//!
//! The paper's simulation proceeds in "meeting" steps; our time-driven mode
//! generalizes that to a classic discrete-event loop so churn ([`crate::SessionChurn`])
//! and message latency ([`crate::LatencyModel`]) can interleave realistically.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic discrete-event queue.
///
/// Events fire in `(time, insertion-order)` order, so ties are broken
/// deterministically — a requirement for reproducible experiments.
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    now: u64,
    seq: u64,
}

#[derive(Clone, Debug)]
struct Scheduled<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` to fire `delay` ticks from now.
    pub fn push_in(&mut self, delay: u64, event: E) {
        self.push_at(self.now.saturating_add(delay), event);
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is in the past.
    pub fn push_at(&mut self, at: u64, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event }));
    }

    /// When the next event fires, if one is scheduled.
    pub fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: u64) -> Option<(u64, E)> {
        match self.heap.peek() {
            Some(Reverse(s)) if s.at <= deadline => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut q = EventQueue::new();
        q.push_at(30, "c");
        q.push_at(10, "a");
        q.push_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.now(), 10);
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 30);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push_at(5, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn push_in_is_relative() {
        let mut q = EventQueue::new();
        q.push_at(100, "x");
        q.pop();
        q.push_in(5, "y");
        assert_eq!(q.pop(), Some((105, "y")));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.push_at(10, "a");
        q.push_at(50, "b");
        assert_eq!(q.pop_until(20), Some((10, "a")));
        assert_eq!(q.pop_until(20), None);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop_until(50), Some((50, "b")));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push_at(10, ());
        q.pop();
        q.push_at(5, ());
    }
}
