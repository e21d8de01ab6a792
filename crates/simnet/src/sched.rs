//! The event queue: a binary heap drained one timestamp bucket at a
//! time.
//!
//! The engine orders events by `(time, seq)` — `time` in simulated
//! nanoseconds, `seq` a monotone tie-breaker minted at push time — and
//! pops them in exactly that total order. A `BinaryHeap` over the
//! `(time, seq, slot)` triple gives that order directly; the engine's
//! scenarios hold only a handful of live events, so `O(log n)` per push
//! and pop is a few comparisons (DESIGN.md §5, "The event queue").
//!
//! ## The one ordering contract
//!
//! Callers must never push an event earlier than the last drained
//! bucket's timestamp (the engine can't: every event it schedules while
//! processing time `t` is at `≥ t`, and arrivals are merged in time
//! order *before* the bucket at their timestamp is drained). Pushes at
//! exactly the current bucket time are legal and come back in the next
//! drain of that timestamp, in `seq` position.

use apples_obs::SchedCounters;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduled event: `(time_ns, seq, slot)`. The slot is the index of
/// the event's payload in the engine's event slab; the scheduler never
/// interprets it.
pub type EventKey = (u64, u64, usize);

/// The engine's event queue: pending events in `(time, seq)` order,
/// handed out one timestamp bucket at a time.
#[derive(Default)]
pub struct EventScheduler {
    heap: BinaryHeap<Reverse<EventKey>>,
    /// Push/drain counters: pure functions of the push/drain schedule,
    /// so deterministic per `(seed, spec)`.
    counters: SchedCounters,
}

impl EventScheduler {
    /// An empty event queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `(t, seq, slot)`. `t` must be at or after the last
    /// drained bucket's timestamp (see the module-level contract).
    pub fn push(&mut self, t: u64, seq: u64, slot: usize) {
        self.counters.pushes += 1;
        self.heap.push(Reverse((t, seq, slot)));
    }

    /// Earliest pending timestamp, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((t, _, _))| t)
    }

    /// Moves every entry at the earliest pending timestamp into `out`
    /// (cleared first), in ascending `seq` order. Leaves `out` empty
    /// when nothing is pending.
    pub fn drain_bucket(&mut self, out: &mut Vec<EventKey>) {
        out.clear();
        let Some(t) = self.peek_time() else { return };
        self.counters.buckets_drained += 1;
        while self.peek_time() == Some(t) {
            if let Some(Reverse(entry)) = self.heap.pop() {
                out.push(entry);
            }
        }
    }

    /// Structural counters: how many pushes and bucket drains this
    /// queue performed. Deterministic per `(seed, spec)`; reported
    /// beside traces, never inside them.
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
    fn single_bucket_round_trip() {
        let mut s = EventScheduler::new();
        s.push(42, 0, 7);
        s.push(42, 1, 8);
        assert_eq!(s.peek_time(), Some(42));
        assert_eq!(s.len(), 2);
        let mut bucket = Vec::new();
        s.drain_bucket(&mut bucket);
        assert_eq!(bucket, vec![(42, 0, 7), (42, 1, 8)]);
        assert!(s.is_empty());
        s.drain_bucket(&mut bucket);
        assert!(bucket.is_empty());
    }

    #[test]
    fn same_timestamp_orders_by_seq_under_perturbed_insertion() {
        // Push one timestamp's entries in scrambled seq order; the
        // drain must hand them back sorted by seq.
        let mut s = EventScheduler::new();
        let seqs = [9u64, 2, 14, 0, 7, 3, 11, 1];
        for &q in &seqs {
            s.push(1000, q, q as usize);
        }
        let mut bucket = Vec::new();
        s.drain_bucket(&mut bucket);
        let got: Vec<u64> = bucket.iter().map(|&(_, q, _)| q).collect();
        let mut want = seqs.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn pushes_at_the_live_bucket_time_merge_in_seq_position() {
        let mut s = EventScheduler::new();
        s.push(50, 0, 0);
        s.push(50, 2, 2);
        let mut bucket = Vec::new();
        s.drain_bucket(&mut bucket);
        assert_eq!(bucket.len(), 2);
        // While the bucket at t=50 is live, a same-time follow-up (with
        // a higher seq, as the engine mints them) joins the next drain
        // of the same timestamp.
        s.push(50, 3, 3);
        s.push(51, 4, 4);
        assert_eq!(s.peek_time(), Some(50));
        s.drain_bucket(&mut bucket);
        assert_eq!(bucket, vec![(50, 3, 3)]);
        s.drain_bucket(&mut bucket);
        assert_eq!(bucket, vec![(51, 4, 4)]);
    }

    #[test]
    fn len_tracks_pushes_and_drains() {
        let mut s = EventScheduler::new();
        for i in 0..100u64 {
            s.push(i * 17 % 5000, i, 0);
        }
        assert_eq!(s.len(), 100);
        let mut bucket = Vec::new();
        let mut popped = 0;
        while !s.is_empty() {
            s.drain_bucket(&mut bucket);
            popped += bucket.len();
        }
        assert_eq!(popped, 100);
        assert_eq!(s.len(), 0);
    }
}
