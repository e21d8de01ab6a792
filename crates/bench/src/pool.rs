//! A bounded thread pool on `std::thread::scope`.
//!
//! The harness maps a few dozen independent, CPU-bound, deterministic
//! simulations at a time (experiments, sweep points, trial ladders),
//! each milliseconds long. At that size one shared cursor is all the
//! scheduling they need:
//!
//! - jobs are indexed up front, and each worker takes the next index
//!   from one atomic **cursor** until none is left, so a worker that
//!   finishes early just takes the next job;
//! - [`Pool::new`] takes one worker per core
//!   ([`std::thread::available_parallelism`]), and a call never starts
//!   more workers than it has jobs. The cap is per call: a job that maps
//!   on a pool of n workers starts up to n - 1 threads of its own, so
//!   nested maps on an n-worker pool can run up to n² threads at once;
//!   a one-worker pool keeps every level on the caller's thread;
//! - results land in their job's slot, so the output order — and
//!   therefore every downstream artifact — is **identical to a serial
//!   run** regardless of scheduling.
//!
//! The caller's thread participates as worker 0: `run` never blocks a
//! core on pure coordination.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the workspace's one sanctioned thread pool: results land by job index, so every schedule is byte-identical"
)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A bounded pool; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

impl Pool {
    /// A pool capped at the machine's available parallelism.
    pub fn new() -> Self {
        let n = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        Pool::with_workers(n)
    }

    /// A pool with an explicit worker cap (≥ 1). Used by the harness's
    /// determinism tests to force serial and parallel schedules.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        Pool { workers }
    }

    /// The worker cap.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job, returning results in job order.
    ///
    /// Jobs must be independent. They may map on a pool of their own,
    /// which starts its own workers (see the module docs); with one
    /// worker, or one job, everything runs in order on the caller's
    /// thread.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        if workers == 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }

        let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);

        let worker_loop = || loop {
            // Relaxed suffices: the cursor publishes no data, only
            // distinct indices. Each job and result passes through its
            // own mutex, and the scope's join publishes the results.
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            if idx >= n {
                break;
            }
            let job = slots[idx].lock().expect("job slot poisoned").take().expect("job ran twice");
            let out = job();
            *results[idx].lock().expect("result slot poisoned") = Some(out);
        };

        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(worker_loop);
            }
            worker_loop(); // the caller works too
        });

        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker exited with jobs unfinished")
            })
            .collect()
    }

    /// Maps `f` over `items` in parallel, preserving order.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let f = &f;
        self.run(items.into_iter().map(|item| move || f(item)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_job_order() {
        let pool = Pool::with_workers(4);
        let out = pool.map((0..100u64).collect(), |i| i * i);
        assert_eq!(out, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let pool = Pool::with_workers(8);
        let out = pool.map((0..257usize).collect(), |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out.len(), 257);
        assert_eq!(counter.load(Ordering::SeqCst), 257);
    }

    #[test]
    fn serial_and_parallel_schedules_agree() {
        let work = |seed: u64| {
            // A little deterministic number crunching.
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            for _ in 0..1000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x
        };
        let serial = Pool::with_workers(1).map((0..64u64).collect(), work);
        let parallel = Pool::with_workers(6).map((0..64u64).collect(), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let jobs: Vec<fn() -> u32> = Vec::new();
        let out = Pool::new().run(jobs);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_jobs_all_complete() {
        // Stragglers at the front: the other workers keep taking jobs.
        let pool = Pool::with_workers(4);
        let out = pool.map((0..40u64).collect(), |i| {
            let spin = if i < 4 { 200_000 } else { 10 };
            let mut acc = i;
            for k in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            (i, acc)
        });
        for (i, (j, _)) in out.iter().enumerate() {
            assert_eq!(i as u64, *j);
        }
    }

    #[test]
    fn nested_pools_do_not_deadlock() {
        let outer = Pool::with_workers(3);
        let sums = outer.map((0..6u64).collect(), |i| {
            let inner = Pool::with_workers(2);
            inner.map((0..10u64).collect(), move |j| i * 100 + j).into_iter().sum::<u64>()
        });
        assert_eq!(sums.len(), 6);
        assert_eq!(sums[1], (100..110u64).sum::<u64>());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Pool::with_workers(0);
    }
}
