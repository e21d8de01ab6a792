//! The event queue: a binary heap that hands out one event at a time.
//!
//! The engine orders events by `(time, seq)` — `time` in simulated
//! nanoseconds, `seq` a monotone tie-breaker minted at push time — and
//! pops them in exactly that total order. Each heap entry packs the
//! pair into one `u128` key, `(t << 64) | seq`, and compares that word
//! alone; the entry's slab slot rides along and is never compared. The
//! engine's scenarios hold only a handful of live events, so `O(log n)`
//! per push and pop is a few one-word comparisons (DESIGN.md §5, "The
//! event queue").
//!
//! ## The one ordering contract
//!
//! Callers must never push an event earlier than the last popped
//! entry's time (the engine can't: every event it schedules while
//! dispatching time `t` is at `≥ t`, and arrivals are merged in time
//! order *before* the first pop at their timestamp). Pushes at exactly
//! the current time are legal; they carry higher seqs than every entry
//! already popped at that time, so they come back next in `seq`
//! position.

use apples_obs::SchedCounters;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pending event: its `(time, seq)` order key, packed into one word,
/// and the index of its payload in the engine's event slab, which the
/// scheduler never interprets.
#[derive(Debug, Clone, Copy)]
pub struct EventKey {
    /// `(time << 64) | seq`: one comparison orders two entries.
    key: u128,
    slot: usize,
}

impl EventKey {
    fn new(t: u64, seq: u64, slot: usize) -> Self {
        EventKey { key: (u128::from(t) << 64) | u128::from(seq), slot }
    }

    fn time(&self) -> u64 {
        (self.key >> 64) as u64
    }

    fn seq(&self) -> u64 {
        self.key as u64
    }
}

// Equality and order read the packed key alone: seqs are unique, so two
// entries with one key are one entry.
impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for EventKey {}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reversed, so the max-heap pops the smallest `(time, seq)` first.
impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The engine's event queue: pending events, popped one at a time in
/// `(time, seq)` order.
#[derive(Default)]
pub struct EventScheduler {
    heap: BinaryHeap<EventKey>,
    /// The push counter: a pure function of the push schedule, so
    /// deterministic per `(seed, spec)`.
    counters: SchedCounters,
}

impl EventScheduler {
    /// An empty event queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `(t, seq, slot)`. `t` must be at or after the last
    /// popped entry's time (see the module-level contract).
    #[inline]
    pub fn push(&mut self, t: u64, seq: u64, slot: usize) {
        self.counters.pushes += 1;
        self.heap.push(EventKey::new(t, seq, slot));
    }

    /// `(time, seq)` of the earliest pending entry, if any.
    #[inline]
    pub fn peek_key(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|e| (e.time(), e.seq()))
    }

    /// Removes and returns the earliest pending entry as
    /// `(time, seq, slot)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, u64, usize)> {
        self.heap.pop().map(|e| (e.time(), e.seq(), e.slot))
    }

    /// Structural counters: how many pushes this queue took.
    /// Deterministic per `(seed, spec)`; reported beside traces, never
    /// inside them.
    pub fn counters(&self) -> SchedCounters {
        self.counters
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_round_trips_one_entry_at_a_time() {
        let mut s = EventScheduler::new();
        s.push(42, 0, 7);
        s.push(42, 1, 8);
        assert_eq!(s.peek_key(), Some((42, 0)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.pop(), Some((42, 0, 7)));
        assert_eq!(s.peek_key(), Some((42, 1)));
        assert_eq!(s.pop(), Some((42, 1, 8)));
        assert!(s.is_empty());
        assert_eq!((s.peek_key(), s.pop()), (None, None));
    }

    #[test]
    fn same_timestamp_pops_by_seq_under_perturbed_insertion() {
        // Push one timestamp's entries in scrambled seq order; the pops
        // must hand them back sorted by seq, each with its own slot.
        let mut s = EventScheduler::new();
        let seqs = [9u64, 2, 14, 0, 7, 3, 11, 1];
        for &q in &seqs {
            s.push(1000, q, q as usize + 100);
        }
        let got: Vec<(u64, u64, usize)> = std::iter::from_fn(|| s.pop()).collect();
        let mut want: Vec<(u64, u64, usize)> =
            seqs.iter().map(|&q| (1000, q, q as usize + 100)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn pushes_at_the_current_time_pop_next_in_seq_position() {
        let mut s = EventScheduler::new();
        s.push(50, 0, 0);
        s.push(50, 2, 2);
        assert_eq!(s.pop(), Some((50, 0, 0)));
        // While t=50 is being dispatched, a same-time follow-up (with a
        // higher seq, as the engine mints them) pops after the entry
        // already queued at 50 and before anything later.
        s.push(50, 3, 3);
        s.push(51, 4, 4);
        assert_eq!(s.peek_key(), Some((50, 2)));
        assert_eq!(s.pop(), Some((50, 2, 2)));
        assert_eq!(s.pop(), Some((50, 3, 3)));
        assert_eq!(s.pop(), Some((51, 4, 4)));
    }

    #[test]
    fn the_key_keeps_every_bit_of_time_and_seq() {
        // A narrowed or mis-shifted key would alias these: seqs at the
        // top of their range must never outrank a later time, and time
        // bits must survive the round trip.
        let mut s = EventScheduler::new();
        let entries = [
            (u64::MAX, u64::MAX, 0),
            (u64::MAX, 0, 1),
            (1, u64::MAX, 2),
            (2, 0, 3),
            (1 << 32, u64::MAX - 1, 4),
            ((1 << 32) + 1, 1 << 32, 5),
            (0, u64::MAX, 6),
            (0, (1 << 63) + 1, 7),
        ];
        for &(t, q, slot) in &entries {
            s.push(t, q, slot);
        }
        let mut want = entries.to_vec();
        want.sort_unstable();
        let got: Vec<(u64, u64, usize)> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(got, want);
        assert_eq!(s.counters().pushes, entries.len() as u64);
    }
}
