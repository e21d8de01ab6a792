//! Runtime **order sanitizer**: shadows the dispatch walk with the
//! invariant checks the static S rules cannot prove, plus a
//! deterministic interleaving perturber.
//!
//! The engine's determinism contract is a total order on events —
//! `(t_ns, seq, stage)` — and every identity gate in the test suite
//! (fused-vs-unfused, serial-vs-parallel measurement) is downstream of
//! it. The sanitizer turns the contract into runtime
//! assertions on a real run:
//!
//! 1. **Monotone time**: each drained timestamp bucket starts strictly
//!    after the previous one; every entry in a bucket carries the
//!    bucket's timestamp.
//! 2. **Globally unique `seq`**: no sequence number is dispatched
//!    twice in a run (tracked with a dense bitset — seqs are minted
//!    densely from zero).
//! 3. **Merged dispatch order**: within one timestamp walk, dispatched
//!    seqs are strictly ascending *across* the three merged sources
//!    (drained bucket, fused-hop FIFO, same-time re-drains) — exactly
//!    the order an unfused serial run pops them in.
//! 4. **Stage sanity**: every event targets a stage inside the
//!    pipeline.
//!
//! The **perturber** checks that the walk's order comes from `seq`
//! alone: it shuffles each drained bucket's unconsumed tail with a
//! seeded Fisher–Yates pass (a different delivery order every bucket,
//! same orders every run) and then applies the merge rule — sort by
//! `seq`. A sanitized, perturbed run must therefore produce
//! **byte-identical** results to an unsanitized run; if any engine code
//! secretly depended on the buffer order before that sort, the identity
//! gate breaks.
//!
//! Like the observer, the sanitizer is a runtime-gated `Option` on the
//! engine: `None` (the default) leaves the hot path untouched except
//! for one branch per site, and the overhead of `Some` is measured by
//! the microbench (`sanitizer_overhead` in `BENCH_simnet.json`).

use apples_rng::Rng;

/// What the sanitizer verified over a run (attached to the engine via
/// [`crate::Engine::with_sanitizer`], read back with
/// [`crate::Engine::take_sanitizer`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizerReport {
    /// Timestamp buckets checked (initial drains; re-drains fold into
    /// the same walk).
    pub buckets: u64,
    /// Events dispatched under invariant checking (queued + fused hops).
    pub events: u64,
    /// Events whose bucket tail was permuted by the perturber before
    /// the seq-keyed merge restored canonical order.
    pub perturbed: u64,
    /// Largest same-timestamp equivalence class seen (bucket length
    /// including re-drained tails) — the most events the seq-keyed
    /// merge had to order at once.
    pub max_bucket: usize,
}

/// The order sanitizer. One instance shadows one engine; state resets
/// at every run start so an engine can be reused across runs.
#[derive(Debug)]
pub struct OrderSanitizer {
    /// `Some(seed)` enables the interleaving perturber; `None` checks
    /// invariants over the engine's native order only.
    perturb: Option<Rng>,
    perturb_seed: Option<u64>,
    /// Timestamp of the previous bucket (monotonicity check).
    last_t: Option<u64>,
    /// Last seq dispatched within the current timestamp walk.
    walk_seq: Option<u64>,
    /// Dense bitset over dispatched seqs (seqs are minted from zero).
    seen: Vec<u64>,
    /// Length of the current bucket including re-drained tails.
    cur_bucket: usize,
    report: SanitizerReport,
}

impl OrderSanitizer {
    /// Check-only sanitizer: verifies the invariants, never reorders.
    pub fn new() -> Self {
        OrderSanitizer {
            perturb: None,
            perturb_seed: None,
            last_t: None,
            walk_seq: None,
            seen: Vec::new(),
            cur_bucket: 0,
            report: SanitizerReport::default(),
        }
    }

    /// Sanitizer with the interleaving perturber armed: every drained
    /// bucket tail is shuffled (seeded, so runs replay) and re-merged
    /// by `seq` before the walk consumes it.
    pub fn with_perturbation(seed: u64) -> Self {
        let mut s = Self::new();
        s.perturb = Some(Rng::seed_from_u64(seed));
        s.perturb_seed = Some(seed);
        s
    }

    /// The accumulated report.
    pub fn report(&self) -> &SanitizerReport {
        &self.report
    }

    /// Resets per-run state (the report accumulates across runs, like
    /// the observer's collections; the perturber restarts from its seed
    /// so every run sees the same perturbation schedule).
    pub fn begin_run(&mut self) {
        self.last_t = None;
        self.walk_seq = None;
        self.seen.clear();
        self.cur_bucket = 0;
        if let Some(seed) = self.perturb_seed {
            self.perturb = Some(Rng::seed_from_u64(seed));
        }
    }

    /// A fresh timestamp bucket was drained. Verifies monotone time and
    /// uniform timestamps, resets the walk cursor, and (when armed)
    /// perturbs + re-merges the bucket.
    pub fn begin_bucket(&mut self, t: u64, bucket: &mut [(u64, u64, usize)]) {
        if let Some(prev) = self.last_t {
            assert!(
                t > prev,
                "order-sanitizer: bucket time went backwards ({prev} -> {t}): \
                 the event queue must drain strictly monotone timestamps"
            );
        }
        self.last_t = Some(t);
        self.walk_seq = None;
        self.cur_bucket = 0;
        self.report.buckets += 1;
        self.check_tail(t, bucket);
    }

    /// Same-time re-drained events were appended at `bucket[from..]`
    /// mid-walk: verify and (when armed) perturb the new tail.
    pub fn on_refill(&mut self, t: u64, bucket: &mut [(u64, u64, usize)], from: usize) {
        self.check_tail(t, &mut bucket[from..]);
    }

    fn check_tail(&mut self, t: u64, tail: &mut [(u64, u64, usize)]) {
        for &(et, _, _) in tail.iter() {
            assert!(
                et == t,
                "order-sanitizer: bucket for t={t} holds an event at t={et}: \
                 a drained bucket is one same-timestamp equivalence class"
            );
        }
        self.cur_bucket += tail.len();
        if self.cur_bucket > self.report.max_bucket {
            self.report.max_bucket = self.cur_bucket;
        }
        if let Some(rng) = self.perturb.as_mut() {
            // Deliver this equivalence class in arbitrary order
            // (Fisher–Yates), then apply the merge rule: sort by seq.
            // The walk must be unable to tell the difference.
            let n = tail.len();
            if n > 1 {
                for i in (1..n).rev() {
                    let j = rng.bounded_u64(i as u64 + 1) as usize;
                    tail.swap(i, j);
                }
                tail.sort_unstable_by_key(|&(_, seq, _)| seq);
                self.report.perturbed += n as u64;
            }
        }
    }

    /// One event leaves the merged walk (drained bucket or fused-hop
    /// FIFO). Verifies global seq uniqueness and strictly ascending
    /// dispatch order within the timestamp.
    pub fn on_dispatch(&mut self, t: u64, seq: u64, stage: usize, n_stages: usize) {
        self.report.events += 1;
        assert!(
            stage < n_stages,
            "order-sanitizer: event seq={seq} at t={t} targets stage {stage} \
             of a {n_stages}-stage pipeline"
        );
        if let Some(prev) = self.walk_seq {
            assert!(
                seq > prev,
                "order-sanitizer: dispatch order regressed at t={t} ({prev} -> {seq}): \
                 the bucket/FIFO/re-drain merge must walk seqs in ascending order"
            );
        }
        self.walk_seq = Some(seq);
        let (word, bit) = ((seq / 64) as usize, seq % 64);
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        assert!(
            self.seen[word] & (1 << bit) == 0,
            "order-sanitizer: seq {seq} dispatched twice: sequence numbers are \
             minted once and consumed once"
        );
        self.seen[word] |= 1 << bit;
    }
}

impl Default for OrderSanitizer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_walk_passes() {
        let mut s = OrderSanitizer::new();
        s.begin_run();
        let mut b = vec![(5u64, 0u64, 0usize), (5, 1, 0)];
        s.begin_bucket(5, &mut b);
        s.on_dispatch(5, 0, 0, 2);
        s.on_dispatch(5, 1, 1, 2);
        let mut b2 = vec![(9u64, 2u64, 0usize)];
        s.begin_bucket(9, &mut b2);
        s.on_dispatch(9, 2, 0, 2);
        assert_eq!(s.report().buckets, 2);
        assert_eq!(s.report().events, 3);
        assert_eq!(s.report().max_bucket, 2);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn time_regression_is_caught() {
        let mut s = OrderSanitizer::new();
        s.begin_run();
        s.begin_bucket(9, &mut [(9, 0, 0)]);
        s.begin_bucket(5, &mut [(5, 1, 0)]);
    }

    #[test]
    #[should_panic(expected = "dispatched twice")]
    fn duplicate_seq_is_caught() {
        let mut s = OrderSanitizer::new();
        s.begin_run();
        s.begin_bucket(5, &mut [(5, 0, 0), (5, 0, 0)]);
        s.on_dispatch(5, 0, 0, 1);
        s.begin_bucket(6, &mut [(6, 0, 0)]);
        s.on_dispatch(6, 0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "dispatch order regressed")]
    fn seq_regression_within_walk_is_caught() {
        let mut s = OrderSanitizer::new();
        s.begin_run();
        s.begin_bucket(5, &mut [(5, 7, 0), (5, 3, 0)]);
        s.on_dispatch(5, 7, 0, 1);
        s.on_dispatch(5, 3, 0, 1);
    }

    #[test]
    #[should_panic(expected = "targets stage")]
    fn stage_overflow_is_caught() {
        let mut s = OrderSanitizer::new();
        s.begin_run();
        s.begin_bucket(5, &mut [(5, 0, 0)]);
        s.on_dispatch(5, 0, 3, 2);
    }

    #[test]
    #[should_panic(expected = "same-timestamp equivalence class")]
    fn mixed_timestamp_bucket_is_caught() {
        let mut s = OrderSanitizer::new();
        s.begin_run();
        s.begin_bucket(5, &mut [(5, 0, 0), (6, 1, 0)]);
    }

    #[test]
    fn perturber_is_deterministic_and_merge_restores_seq_order() {
        let run = || {
            let mut s = OrderSanitizer::with_perturbation(42);
            s.begin_run();
            let mut b: Vec<(u64, u64, usize)> = (0..16).map(|i| (5, i, 0)).collect();
            s.begin_bucket(5, &mut b);
            b
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded perturbation must replay identically");
        // The merge rule restored ascending seq order after the shuffle.
        assert!(a.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn begin_run_resets_per_run_state_but_keeps_the_report() {
        let mut s = OrderSanitizer::with_perturbation(7);
        s.begin_run();
        s.begin_bucket(5, &mut [(5, 0, 0)]);
        s.on_dispatch(5, 0, 0, 1);
        s.begin_run();
        // Same seq and an earlier time are legal again after reset.
        s.begin_bucket(2, &mut [(2, 0, 0)]);
        s.on_dispatch(2, 0, 0, 1);
        assert_eq!(s.report().buckets, 2, "report accumulates across runs");
    }
}
