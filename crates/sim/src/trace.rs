//! A bounded trace of typed records.
//!
//! A component pushes `(SimTime, E)` records into a [`Trace`], where `E` is
//! its own `Copy` event type — an enum of what it can report, carrying ids and
//! counts rather than text. The trace is a ring of [`TRACE_CAPACITY`] records,
//! allocated in full when it is built, that evicts the oldest record first and
//! counts how many it evicted: a record costs a push, and a daemon that runs
//! for as long as its board is up holds the same trace heap at its millionth
//! launch as at its first. Rendering is the owner's business, because only
//! the owner can turn its ids back into names.

use crate::time::SimTime;
use std::collections::VecDeque;

/// The number of records a [`Trace`] keeps.
pub const TRACE_CAPACITY: usize = 4096;

/// The last [`TRACE_CAPACITY`] records, oldest first.
#[derive(Debug)]
pub struct Trace<E: Copy> {
    records: VecDeque<(SimTime, E)>,
    evicted: u64,
}

impl<E: Copy> Default for Trace<E> {
    fn default() -> Self {
        Trace {
            records: VecDeque::with_capacity(TRACE_CAPACITY),
            evicted: 0,
        }
    }
}

impl<E: Copy> Trace<E> {
    /// An empty trace, its ring allocated.
    pub fn new() -> Trace<E> {
        Trace::default()
    }

    /// Record `event` at `at`, evicting the oldest record if the ring is full.
    pub fn push(&mut self, at: SimTime, event: E) {
        if self.records.len() == TRACE_CAPACITY {
            self.records.pop_front();
            self.evicted += 1;
        }
        self.records.push_back((at, event));
    }

    /// The records held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = (SimTime, E)> + '_ {
        self.records.iter().copied()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// How many records were evicted to make room for newer ones.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace with `n` records pushed, the `i`-th being `i` at `i` ms.
    fn pushed(n: u32) -> Trace<u32> {
        let mut t = Trace::new();
        for i in 0..n {
            t.push(SimTime::from_millis(i as u64), i);
        }
        t
    }

    #[test]
    fn records_come_back_in_push_order() {
        let t = pushed(3);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty() && Trace::<u32>::new().is_empty());
        assert_eq!(
            t.records().collect::<Vec<_>>(),
            [0, 1, 2].map(|i| (SimTime::from_millis(i as u64), i))
        );
        assert_eq!(t.evicted(), 0);
    }

    #[test]
    fn the_ring_never_holds_more_than_its_capacity() {
        let mut t = Trace::new();
        for i in 0..3 * TRACE_CAPACITY {
            t.push(SimTime::ZERO, i);
            assert!(t.len() <= TRACE_CAPACITY);
        }
        assert_eq!(t.len(), TRACE_CAPACITY);
    }

    #[test]
    fn the_oldest_record_is_evicted_first() {
        let last = TRACE_CAPACITY as u32 + 4;
        let t = pushed(last + 1);
        let kept: Vec<u32> = t.records().map(|(_, e)| e).collect();
        assert_eq!(kept.first(), Some(&5));
        assert!(kept.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(
            t.records().last(),
            Some((SimTime::from_millis(last as u64), last))
        );
    }

    #[test]
    fn evictions_are_exactly_the_records_pushed_past_capacity() {
        for pushes in [
            0,
            1,
            TRACE_CAPACITY,
            TRACE_CAPACITY + 1,
            2 * TRACE_CAPACITY + 7,
        ] {
            let t = pushed(pushes as u32);
            assert_eq!(
                t.evicted(),
                pushes.saturating_sub(TRACE_CAPACITY) as u64,
                "{pushes} pushes"
            );
            assert_eq!(t.len() as u64 + t.evicted(), pushes as u64);
        }
    }
}
