//! Property tests for the event queue against an independent model: a
//! plain `Vec` of pending entries, drained by taking the minimum
//! timestamp and then every entry at it in ascending `seq` order.
//!
//! The schedules are the shapes the engine and the fault-injection
//! layer generate — near-term completions, millisecond fault windows,
//! timers straddling 2^48 ns, same-timestamp bursts, times near
//! `u64::MAX`, and pushes into the bucket being dispatched. After every
//! push and drain, the queue's `peek_time`, `len` and `counters().pushes`
//! must agree with the model too. Every push respects the module's one
//! ordering contract (never push earlier than the last drained bucket's
//! timestamp).

use apples_rng::Rng;
use apples_simnet::sched::{EventKey, EventScheduler};

const EPOCH: u64 = 1 << 48;

/// The reference: pending entries in push order, plus a push count.
#[derive(Default)]
struct Model {
    pending: Vec<EventKey>,
    pushes: u64,
}

impl Model {
    fn push(&mut self, t: u64, seq: u64) {
        self.pending.push((t, seq, seq as usize));
        self.pushes += 1;
    }

    fn peek_time(&self) -> Option<u64> {
        self.pending.iter().map(|&(t, _, _)| t).min()
    }

    /// Every entry at the minimum timestamp, ascending by `seq`.
    fn drain_bucket(&mut self) -> Vec<EventKey> {
        let Some(t) = self.peek_time() else { return Vec::new() };
        let (mut bucket, rest): (Vec<_>, Vec<_>) =
            self.pending.iter().partition(|&&(et, _, _)| et == t);
        self.pending = rest;
        bucket.sort_unstable_by_key(|&(_, seq, _)| seq);
        bucket
    }
}

/// The queue under test and the model, fed the same pushes.
#[derive(Default)]
struct Pair {
    queue: EventScheduler,
    model: Model,
    bucket: Vec<EventKey>,
}

impl Pair {
    fn push(&mut self, t: u64, seq: u64) {
        self.queue.push(t, seq, seq as usize);
        self.model.push(t, seq);
        self.check_state("push");
    }

    /// Drains one bucket from both, asserts they match, and returns it.
    fn drain(&mut self, ctx: &str) -> &[EventKey] {
        self.queue.drain_bucket(&mut self.bucket);
        assert_eq!(self.bucket, self.model.drain_bucket(), "{ctx}: bucket diverged");
        self.check_state(ctx);
        &self.bucket
    }

    /// Drains both fully and returns the number of events drained.
    fn drain_all(&mut self, ctx: &str) -> usize {
        let mut drained = 0;
        loop {
            let n = self.drain(ctx).len();
            if n == 0 {
                assert!(self.queue.is_empty(), "{ctx}: empty bucket but events left");
                return drained;
            }
            drained += n;
        }
    }

    fn check_state(&self, ctx: &str) {
        assert_eq!(self.queue.peek_time(), self.model.peek_time(), "{ctx}: peek_time");
        assert_eq!(self.queue.len(), self.model.pending.len(), "{ctx}: len");
        assert_eq!(self.queue.counters().pushes, self.model.pushes, "{ctx}: pushes");
    }
}

#[test]
fn randomized_fault_schedules_match_the_model() {
    // Interleaved push/drain over many seeds: the schedule mixes
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
            if let Some(&(t, _, _)) = pair.drain(&format!("seed {seed}")).first() {
                now = t;
            }
        }
        pair.drain_all("tail");
    }
}

#[test]
fn timers_around_two_to_the_48() {
    // Timers either side of 2^48 and 2^49 from a cursor at 0 come back
    // in (time, seq) order.
    let mut pair = Pair::default();
    for (i, t) in [EPOCH - 1, EPOCH, EPOCH + 1, 2 * EPOCH - 1, 2 * EPOCH].iter().enumerate() {
        pair.push(*t, i as u64);
    }
    assert_eq!(pair.drain_all("2^48"), 5);
}

#[test]
fn same_timestamp_bursts_drain_in_seq_order() {
    // Same-time bursts pushed in scrambled seq order: each bucket must
    // hold the whole burst, sorted by seq.
    let mut pair = Pair::default();
    let mut seq = 0u64;
    let times = [7_777u64, EPOCH, 5 * EPOCH + 123];
    for &t in &times {
        for k in [3u64, 0, 4, 1, 2] {
            pair.push(t, seq + k);
        }
        seq += 5;
    }
    for expect_t in times {
        let bucket = pair.drain("burst");
        assert_eq!(bucket.len(), 5, "burst at {expect_t} must drain as one bucket");
        assert!(bucket.iter().all(|&(t, _, _)| t == expect_t));
        assert!(bucket.windows(2).all(|w| w[0].1 < w[1].1), "seq order within bucket: {bucket:?}");
    }
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
    pair.drain("anchor");
    for seq in 1..200u64 {
        pair.push(base + rng.range_u64(0, 3 * EPOCH), seq);
    }
    pair.push(u64::MAX, 200);
    assert_eq!(pair.drain_all("near u64::MAX"), 200);
}

#[test]
fn pushing_into_the_live_bucket_is_legal_and_ordered() {
    // The contract allows pushes at exactly the last drained timestamp;
    // they come back in the next drain of that timestamp.
    let mut pair = Pair::default();
    pair.push(100, 0);
    pair.push(200, 1);
    assert_eq!(pair.drain("first")[0].0, 100);
    // While "processing" t=100, schedule more work at t=100 and t=150.
    pair.push(100, 2);
    pair.push(150, 3);
    assert_eq!(pair.drain("live bucket"), [(100, 2, 2)]);
    assert_eq!(pair.drain_all("live-bucket tail"), 2);
}
