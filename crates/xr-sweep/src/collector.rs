//! In-order streaming collection of out-of-order campaign results.

use std::collections::BTreeMap;

/// Reorders results that complete out of order back into point order,
/// emitting each contiguous prefix to a sink the moment it is complete.
///
/// This is the streaming bridge between a parallel campaign and an
/// append-only artifact such as a CSV file: workers push `(index, row)` pairs
/// as they finish, the collector holds back anything ahead of a gap, and the
/// sink only ever observes rows in index order — so the written artifact is
/// byte-identical to a sequential run.
///
/// The hold-back window is **bounded**: one slow point must not let faster
/// workers race ahead and buffer an entire campaign in memory. The
/// collector never exceeds its cap — callers consult
/// [`InOrderCollector::accepts`] before pushing and apply backpressure
/// (block the producing worker) when the window is full, as
/// [`crate::CampaignRunner`]'s streaming paths do.
#[derive(Debug)]
pub struct InOrderCollector<R, F: FnMut(usize, R)> {
    next: usize,
    pending: BTreeMap<usize, R>,
    /// Maximum held-back results.
    cap: usize,
    sink: F,
}

impl<R, F: FnMut(usize, R)> InOrderCollector<R, F> {
    /// A collector forwarding in-order results to `sink`, holding back at
    /// most `cap` results (clamped to at least 1).
    pub fn new(cap: usize, sink: F) -> Self {
        Self {
            next: 0,
            pending: BTreeMap::new(),
            cap: cap.max(1),
            sink,
        }
    }

    /// `true` when the result for `index` may be pushed without growing the
    /// buffer past the cap. The next-in-order index is always accepted — it
    /// flows straight through to the sink (draining the buffer), so
    /// backpressure can never deadlock the one worker able to fill the gap.
    #[must_use]
    pub fn accepts(&self, index: usize) -> bool {
        index == self.next || self.pending.len() < self.cap
    }

    /// Accepts the result for `index`, emitting it (and any directly
    /// following held-back results) if it extends the contiguous prefix.
    ///
    /// # Panics
    ///
    /// Panics if `index` was already emitted or is already pending — a
    /// duplicate index means the campaign evaluated a point twice — or if
    /// the push overflows a bounded window (callers gate on
    /// [`InOrderCollector::accepts`]).
    pub fn push(&mut self, index: usize, value: R) {
        assert!(
            index >= self.next,
            "duplicate result for already-emitted point {index}"
        );
        assert!(
            self.accepts(index),
            "hold-back window overflow: point {index} pushed with {} already buffered (cap {})",
            self.pending.len(),
            self.cap
        );
        if index == self.next {
            // The gap-filler flows straight through without touching the
            // buffer, so the window never transiently exceeds its cap.
            (self.sink)(self.next, value);
            self.next += 1;
        } else {
            let duplicate = self.pending.insert(index, value);
            assert!(duplicate.is_none(), "duplicate result for point {index}");
        }
        while let Some(value) = self.pending.remove(&self.next) {
            (self.sink)(self.next, value);
            self.next += 1;
        }
    }

    /// `true` when nothing is held back waiting for a gap to fill.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_pushes_emit_in_order() {
        let seen = std::cell::RefCell::new(Vec::new());
        let mut collector =
            InOrderCollector::new(4, |i: usize, v: &str| seen.borrow_mut().push((i, v)));
        collector.push(2, "c");
        collector.push(0, "a");
        assert_eq!(*seen.borrow(), vec![(0, "a")]);
        assert!(!collector.is_drained());
        collector.push(1, "b");
        assert_eq!(*seen.borrow(), vec![(0, "a"), (1, "b"), (2, "c")]);
        assert!(collector.is_drained());
    }

    #[test]
    #[should_panic(expected = "duplicate result")]
    fn duplicate_indices_panic() {
        let mut collector = InOrderCollector::new(4, |_, _: u8| {});
        collector.push(0, 1);
        collector.push(0, 2);
    }

    #[test]
    fn bounded_windows_gate_admission_but_never_the_gap_filler() {
        let seen = std::cell::RefCell::new(Vec::new());
        let mut collector = InOrderCollector::new(2, |i, _: u8| seen.borrow_mut().push(i));
        collector.push(3, 0);
        collector.push(1, 0);
        // The window is full: run-ahead indices are refused…
        assert!(!collector.accepts(2));
        assert!(!collector.accepts(9));
        // …but the next-in-order index always gets through (it drains).
        assert!(collector.accepts(0));
        collector.push(0, 0);
        assert_eq!(*seen.borrow(), vec![0, 1]);
        // Point 3 alone is held back, so there is room again.
        assert!(collector.accepts(2));
        collector.push(2, 0);
        assert_eq!(*seen.borrow(), vec![0, 1, 2, 3]);
        assert!(collector.is_drained());
    }

    #[test]
    #[should_panic(expected = "hold-back window overflow")]
    fn overflowing_a_bounded_window_panics() {
        let mut collector = InOrderCollector::new(1, |_, _: u8| {});
        collector.push(1, 0);
        collector.push(2, 0);
    }

    #[test]
    fn caps_clamp_to_one() {
        let mut collector = InOrderCollector::new(0, |_, _: u8| {});
        assert!(collector.accepts(1));
        collector.push(1, 0);
        assert!(!collector.accepts(2));
    }
}
