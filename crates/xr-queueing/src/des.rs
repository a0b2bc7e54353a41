//! A minimal discrete-event-simulation engine.
//!
//! The M/M/1 simulator in this crate is built on one primitive: a priority
//! queue of timestamped events processed in non-decreasing time order, with
//! deterministic tie-breaking so that seeded runs are reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use xr_types::Seconds;

/// A scheduled event carrying a payload of type `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event<T> {
    /// Simulated time at which the event fires.
    pub time: Seconds,
    /// Monotonic sequence number used to break ties deterministically
    /// (first-scheduled fires first).
    pub sequence: u64,
    /// The event payload.
    pub payload: T,
}

/// Internal wrapper giving `BinaryHeap` min-heap semantics by time then
/// sequence number.
#[derive(Debug)]
struct HeapEntry<T>(Event<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.sequence == other.0.sequence
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering so that the earliest event is popped first;
        // `schedule_at` rejects non-finite times, so partial_cmp cannot fail.
        other
            .0
            .time
            .partial_cmp(&self.0.time)
            .expect("event times are always finite")
            .then_with(|| other.0.sequence.cmp(&self.0.sequence))
    }
}

/// A deterministic future-event list ordered by simulated time.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    next_sequence: u64,
    now: Seconds,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue starting at simulated time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_sequence: 0,
            now: Seconds::ZERO,
        }
    }

    /// Current simulated time (the time of the last popped event).
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at absolute simulated time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite (NaN or ±∞ would corrupt the heap
    /// ordering) or precedes the current simulated time (events cannot be
    /// scheduled in the past).
    pub fn schedule_at(&mut self, time: Seconds, payload: T) {
        assert!(
            time.as_f64().is_finite(),
            "event time must be finite (got {time})"
        );
        assert!(
            time >= self.now,
            "cannot schedule an event in the past ({} < {})",
            time,
            self.now
        );
        let event = Event {
            time,
            sequence: self.next_sequence,
            payload,
        };
        self.next_sequence += 1;
        self.heap.push(HeapEntry(event));
    }

    /// Schedules `payload` after a delay relative to the current time.
    pub fn schedule_after(&mut self, delay: Seconds, payload: T) {
        let delay = delay.max(Seconds::ZERO);
        self.schedule_at(self.now + delay, payload);
    }

    /// Pops the next event, advancing the simulated clock to its timestamp.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let entry = self.heap.pop()?;
        self.now = entry.0.time;
        Some(entry.0)
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Seconds::new(3.0), "c");
        q.schedule_at(Seconds::new(1.0), "a");
        q.schedule_at(Seconds::new(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Seconds::new(1.0), 1);
        q.schedule_at(Seconds::new(1.0), 2);
        q.schedule_at(Seconds::new(1.0), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Seconds::ZERO);
        q.schedule_after(Seconds::new(0.5), ());
        q.pop();
        assert!((q.now().as_f64() - 0.5).abs() < 1e-12);
        q.schedule_after(Seconds::new(0.25), ());
        q.pop();
        assert!((q.now().as_f64() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn negative_relative_delay_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(Seconds::new(1.0), "x");
        q.pop();
        q.schedule_after(Seconds::new(-3.0), "y");
        let e = q.pop().unwrap();
        assert_eq!(e.payload, "y");
        assert!((e.time.as_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot schedule an event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Seconds::new(2.0), ());
        q.pop();
        q.schedule_at(Seconds::new(1.0), ());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn scheduling_nan_time_panics_with_accurate_message() {
        // `Seconds::new` rejects NaN outright, but arithmetic on infinite
        // quantities still produces one (∞ − ∞); the queue must name the real
        // problem instead of claiming the event lies "in the past".
        let nan = Seconds::new(f64::INFINITY) - Seconds::new(f64::INFINITY);
        assert!(nan.as_f64().is_nan());
        let mut q = EventQueue::new();
        q.schedule_at(nan, ());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn scheduling_infinite_time_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Seconds::new(f64::INFINITY), ());
    }

    #[test]
    fn len_and_peek() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(Seconds::new(4.0), ());
        q.schedule_at(Seconds::new(2.0), ());
        assert_eq!(q.len(), 2);
        assert!((q.pop().unwrap().time.as_f64() - 2.0).abs() < 1e-12);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.now(), Seconds::ZERO);
    }
}
