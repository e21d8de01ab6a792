//! A deterministic sim-time time-series ring of dispatch counts.
//!
//! The run is cut into fixed sim-time intervals (`interval_ns` wide);
//! each retained interval holds one count: the packets dispatched into
//! service in it, the throughput numerator. The ring keeps the most
//! recent [`TimeSeries::capacity`] intervals: when a new interval opens
//! past the window, the oldest counts are evicted, so memory stays flat
//! on arbitrarily long runs.
//!
//! Everything here is keyed by *sim time*, so the series is a pure
//! function of `(seed, spec)` and identical across fusion modes.

use std::collections::VecDeque;

/// Default interval width: 2^20 ns ≈ 1.05 ms of sim time per interval.
pub const DEFAULT_INTERVAL_NS: u64 = 1 << 20;

/// Default ring bound: at the default interval this retains ~0.5 s of
/// sim time, far past the bench windows, on a fixed footprint.
pub const DEFAULT_SERIES_CAPACITY: usize = 512;

/// The ring: retained `(interval index, dispatches)` pairs, ascending
/// by index, at most `cap` of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    interval_ns: u64,
    cap: usize,
    /// Retained intervals, strictly ascending by index. Dispatch times
    /// never decrease, so only the back entry is ever written.
    bins: VecDeque<(u64, u64)>,
    /// End of the back entry's interval: a dispatch before it counts
    /// into that entry with one compare.
    cur_end_ns: u64,
}

impl TimeSeries {
    /// Creates an empty series with the given interval width and ring
    /// bound (both floored at 1).
    pub fn new(interval_ns: u64, capacity: usize) -> Self {
        TimeSeries {
            interval_ns: interval_ns.max(1),
            cap: capacity.max(1),
            bins: VecDeque::new(),
            cur_end_ns: 0,
        }
    }

    /// The configured interval width in sim-time ns.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// The ring bound: how many intervals are retained.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of retained intervals.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Retained `(interval index, dispatches)` pairs, ascending by index.
    pub fn bins(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins.iter().copied()
    }

    /// A packet was dispatched into service at sim time `t_ns`, no
    /// earlier than the last dispatch. The common case — same interval
    /// as the last dispatch — is a single compare.
    #[inline]
    pub fn on_dispatch(&mut self, t_ns: u64) {
        debug_assert!(
            self.bins.back().is_none_or(|&(idx, _)| t_ns >= idx * self.interval_ns),
            "dispatch at {t_ns} ns precedes the current interval"
        );
        if t_ns >= self.cur_end_ns {
            self.open(t_ns / self.interval_ns);
        }
        if let Some((_, n)) = self.bins.back_mut() {
            *n += 1;
        }
    }

    /// Cold path: opens interval `idx` as the new back entry and drops
    /// every front entry older than `idx - cap + 1`, so at most `cap`
    /// intervals are retained.
    fn open(&mut self, idx: u64) {
        self.bins.push_back((idx, 0));
        let threshold = idx.saturating_sub(self.cap as u64 - 1);
        while self.bins.front().is_some_and(|&(i, _)| i < threshold) {
            self.bins.pop_front();
        }
        self.cur_end_ns = (idx + 1).saturating_mul(self.interval_ns);
    }

    /// Total dispatches across retained intervals.
    pub fn total_dispatches(&self) -> u64 {
        self.bins.iter().map(|&(_, n)| n).sum()
    }

    /// The busiest retained interval: `(index, dispatches)`, preferring
    /// the earliest on ties.
    pub fn peak_interval(&self) -> Option<(u64, u64)> {
        self.bins().max_by_key(|&(idx, n)| (n, u64::MAX - idx))
    }
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new(DEFAULT_INTERVAL_NS, DEFAULT_SERIES_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(cap: usize) -> TimeSeries {
        TimeSeries::new(100, cap)
    }

    #[test]
    fn bins_align_by_interval_index() {
        let mut ts = series(8);
        for t in [0, 50, 99, 100, 250] {
            ts.on_dispatch(t);
        }
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.bins().collect::<Vec<_>>(), vec![(0, 3), (1, 1), (2, 1)]);
        assert_eq!(ts.total_dispatches(), 5);
        assert_eq!(ts.peak_interval(), Some((0, 3)));
    }

    #[test]
    fn ring_evicts_past_the_window() {
        let mut ts = series(4);
        for i in 0..10u64 {
            ts.on_dispatch(i * 100);
        }
        assert_eq!(ts.len(), 4);
        let idxs: Vec<u64> = ts.bins().map(|(i, _)| i).collect();
        assert_eq!(idxs, vec![6, 7, 8, 9]);
        // A later dispatch in the newest interval counts into it.
        ts.on_dispatch(950);
        assert_eq!(ts.bins().last(), Some((9, 2)));
        // A jump past the whole window leaves only the new interval.
        ts.on_dispatch(2_000);
        assert_eq!(ts.bins().collect::<Vec<_>>(), vec![(20, 1)]);
    }
}
