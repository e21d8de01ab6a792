//! Property tests for the event queue against an independent model: a
//! plain `Vec` of pending `(time, seq, slot)` entries, popped by taking
//! the smallest `(time, seq)` pair.
//!
//! The schedules are the shapes the engine and the fault-injection
//! layer generate — near-term completions, millisecond fault windows,
//! timers straddling 2^48 ns, same-timestamp bursts, times near
//! `u64::MAX`, and pushes at the time being dispatched — plus seqs near
//! `u64::MAX`, so a mis-shifted or narrowed `(t << 64) | seq` key fails
//! here instead of reordering events silently. After every push and
//! pop, the queue's `peek_key`, `len` and `counters().pushes` must agree
//! with the model too. Every push respects the module's one ordering
//! contract (never push earlier than the last popped entry's time).

use apples_rng::Rng;
use apples_simnet::sched::EventScheduler;

const EPOCH: u64 = 1 << 48;

/// A popped entry: `(time, seq, slot)`.
type Entry = (u64, u64, usize);

/// The reference: pending entries in push order, plus a push count.
#[derive(Default)]
struct Model {
    pending: Vec<Entry>,
    pushes: u64,
}

impl Model {
    fn push(&mut self, t: u64, seq: u64, slot: usize) {
        self.pending.push((t, seq, slot));
        self.pushes += 1;
    }

    /// Position of the smallest `(time, seq)`, by a linear scan.
    fn min_at(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    fn peek_key(&self) -> Option<(u64, u64)> {
        self.min_at().map(|i| (self.pending[i].0, self.pending[i].1))
    }

    fn pop(&mut self) -> Option<Entry> {
        self.min_at().map(|i| self.pending.swap_remove(i))
    }
}

/// The queue under test and the model, fed the same pushes.
#[derive(Default)]
struct Pair {
    queue: EventScheduler,
    model: Model,
    /// Slots count pushes, so each entry's slot is distinct from its
    /// seq and a swapped field shows.
    next_slot: usize,
}

impl Pair {
    fn push(&mut self, t: u64, seq: u64) {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.queue.push(t, seq, slot);
        self.model.push(t, seq, slot);
        self.check_state("push");
    }

    /// Pops one entry from both, asserts they match, and returns it.
    fn pop(&mut self, ctx: &str) -> Option<Entry> {
        let got = self.queue.pop();
        assert_eq!(got, self.model.pop(), "{ctx}: popped entry diverged");
        self.check_state(ctx);
        got
    }

    /// Pops both dry; returns the number of entries popped, asserting
    /// that they came out in strictly ascending `(time, seq)` order.
    fn pop_all(&mut self, ctx: &str) -> usize {
        let mut popped = 0;
        let mut last: Option<(u64, u64)> = None;
        while let Some((t, seq, _)) = self.pop(ctx) {
            assert!(last < Some((t, seq)), "{ctx}: ({t}, {seq}) popped after {last:?}");
            last = Some((t, seq));
            popped += 1;
        }
        assert!(self.queue.is_empty(), "{ctx}: pop returned None with events left");
        popped
    }

    fn check_state(&self, ctx: &str) {
        assert_eq!(self.queue.peek_key(), self.model.peek_key(), "{ctx}: peek_key");
        assert_eq!(self.queue.len(), self.model.pending.len(), "{ctx}: len");
        assert_eq!(self.queue.counters().pushes, self.model.pushes, "{ctx}: pushes");
    }
}

#[test]
fn randomized_fault_schedules_match_the_model() {
    // Interleaved pushes and pops over many seeds: the schedule mixes
    // near-term completions, fault-window timers at millisecond range,
    // and far-out recovery timers around and beyond 2^48 ns — what a
    // FaultPlan's DeviceDown/DeviceUp events look like.
    for seed in 0..20u64 {
        let mut rng = Rng::seed_from_u64(0xFA17 ^ seed);
        let mut pair = Pair::default();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..400 {
            // A burst of pushes at or after `now` (the contract).
            for _ in 0..rng.range_u64(1, 8) {
                let delta = match rng.range_u64(0, 10) {
                    0..=4 => rng.range_u64(0, 2_000),            // near-term service
                    5..=7 => rng.range_u64(100_000, 60_000_000), // fault windows
                    8 => rng.range_u64(EPOCH - 1_000, EPOCH + 1_000), // 2^48 straddle
                    _ => rng.range_u64(EPOCH, 3 * EPOCH),        // far future
                };
                pair.push(now + delta, seq);
                seq += 1;
            }
            for _ in 0..rng.range_u64(1, 4) {
                if let Some((t, _, _)) = pair.pop(&format!("seed {seed}")) {
                    now = t;
                }
            }
        }
        pair.pop_all("tail");
    }
}

#[test]
fn timers_around_two_to_the_48() {
    // Timers either side of 2^48 and 2^49 from a cursor at 0 come back
    // in (time, seq) order.
    let mut pair = Pair::default();
    for (i, t) in [2 * EPOCH, EPOCH + 1, EPOCH - 1, 2 * EPOCH - 1, EPOCH].iter().enumerate() {
        pair.push(*t, i as u64);
    }
    assert_eq!(pair.pop_all("2^48"), 5);
}

#[test]
fn same_timestamp_bursts_pop_in_seq_order() {
    // Same-time bursts pushed in scrambled seq order: each burst must
    // pop whole, sorted by seq, before the next time.
    let mut pair = Pair::default();
    let mut seq = 0u64;
    let times = [7_777u64, EPOCH, 5 * EPOCH + 123];
    for &t in times.iter().rev() {
        for k in [3u64, 0, 4, 1, 2] {
            pair.push(t, seq + k);
        }
        seq += 5;
    }
    for (burst, expect_t) in times.into_iter().enumerate() {
        let first = 5 * (times.len() - 1 - burst) as u64;
        for k in 0..5 {
            let popped = pair.pop("burst").map(|(t, q, _)| (t, q));
            assert_eq!(popped, Some((expect_t, first + k)), "burst at {expect_t}");
        }
    }
    assert!(pair.queue.is_empty());
}

#[test]
fn times_near_u64_max_stay_ordered() {
    // Cursor and timers in the top of the time range, up to u64::MAX
    // itself: nothing may wrap.
    let base = u64::MAX - 3 * EPOCH;
    let mut pair = Pair::default();
    let mut rng = Rng::seed_from_u64(0xFEED);
    // An anchor event gets the cursor near the top of the range first,
    // respecting the never-push-earlier contract for what follows.
    pair.push(base, 0);
    pair.pop("anchor");
    for seq in 1..200u64 {
        pair.push(base + rng.range_u64(0, 3 * EPOCH), seq);
    }
    pair.push(u64::MAX, 200);
    pair.push(u64::MAX, u64::MAX);
    assert_eq!(pair.pop_all("near u64::MAX"), 201);
}

#[test]
fn seqs_near_u64_max_never_outrank_time() {
    // Seqs in the top of their range, including u64::MAX and values
    // with bit 63 or bit 32 set, each against times one apart: a key
    // whose seq spilled into the time bits, or whose time lost its top
    // bits, pops these out of (time, seq) order.
    let mut rng = Rng::seed_from_u64(0x5E9);
    for round in 0..50u64 {
        let mut pair = Pair::default();
        let now = match round % 3 {
            0 => 0,
            1 => EPOCH + round,
            _ => u64::MAX - 64,
        };
        // u64::MAX itself is kept for the push after the first pop.
        let mut seqs: Vec<u64> = vec![u64::MAX - 1, 1 << 63, (1 << 63) - 1, 1 << 32];
        seqs.extend((0..20).map(|_| u64::MAX - rng.range_u64(1, 1 << 20)));
        seqs.extend((0..20).map(|_| rng.range_u64(0, u64::MAX)));
        seqs.sort_unstable();
        seqs.dedup();
        for &seq in &seqs {
            pair.push(now + rng.range_u64(0, 4), seq);
        }
        // A push at the time being dispatched, as the engine mints it:
        // with a seq above every one already queued.
        let Some((t, _, _)) = pair.pop("first") else { panic!("nothing popped") };
        pair.push(t, u64::MAX);
        assert_eq!(pair.pop_all(&format!("round {round}")), seqs.len());
    }
}

#[test]
fn pushing_at_the_time_being_dispatched_is_legal_and_ordered() {
    // The contract allows pushes at exactly the last popped time; they
    // pop after every entry already queued at that time, in seq order.
    let mut pair = Pair::default();
    pair.push(100, 0);
    pair.push(100, 1);
    pair.push(200, 2);
    assert_eq!(pair.pop("first").map(|e| e.1), Some(0));
    // While "processing" t=100, schedule more work at t=100 and t=150.
    pair.push(100, 3);
    pair.push(150, 4);
    assert_eq!(pair.pop("queued at 100").map(|e| (e.0, e.1)), Some((100, 1)));
    assert_eq!(pair.pop("pushed at 100").map(|e| (e.0, e.1)), Some((100, 3)));
    assert_eq!(pair.pop_all("tail"), 2);
}
