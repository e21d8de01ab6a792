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
    /// Retained interval indices, strictly ascending; parallel to
    /// `dispatches`.
    idxs: Vec<u64>,
    dispatches: Vec<u64>,
    /// Hot-path cache: the slot of the interval most recently written,
    /// valid while `has_cur`. Lets a dispatch update the current count
    /// with one compare instead of a division + search.
    cur_slot: usize,
    cur_end_ns: u64,
    has_cur: bool,
}

impl TimeSeries {
    /// Creates an empty series with the given interval width and ring
    /// bound (both floored at 1).
    pub fn new(interval_ns: u64, capacity: usize) -> Self {
        TimeSeries {
            interval_ns: interval_ns.max(1),
            cap: capacity.max(1),
            idxs: Vec::new(),
            dispatches: Vec::new(),
            cur_slot: 0,
            cur_end_ns: 0,
            has_cur: false,
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
        self.idxs.len()
    }

    /// True when nothing has been recorded (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.idxs.is_empty()
    }

    /// Retained `(interval index, dispatches)` pairs, ascending by index.
    pub fn bins(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.idxs.iter().copied().zip(self.dispatches.iter().copied())
    }

    /// Cold path: position the cache on interval `idx`, inserting an
    /// empty count and evicting past-window intervals as needed.
    fn seek(&mut self, idx: u64) {
        match self.idxs.binary_search(&idx) {
            Ok(slot) => self.cur_slot = slot,
            Err(slot) => {
                self.idxs.insert(slot, idx);
                self.dispatches.insert(slot, 0);
                self.evict();
                // Eviction only removes from the front, so re-search.
                self.cur_slot = self.idxs.binary_search(&idx).unwrap_or(0);
            }
        }
        self.cur_end_ns = (idx + 1).saturating_mul(self.interval_ns);
        self.has_cur = true;
    }

    /// Drops every interval older than `max_idx - cap + 1`. The
    /// threshold is a pure function of the maximum interval ever
    /// retained, which only grows, so an evicted interval never returns.
    fn evict(&mut self) {
        let Some(&max_idx) = self.idxs.last() else { return };
        let threshold = max_idx.saturating_sub(self.cap as u64 - 1);
        let keep_from = self.idxs.partition_point(|&i| i < threshold);
        if keep_from > 0 {
            self.idxs.drain(..keep_from);
            self.dispatches.drain(..keep_from);
        }
    }

    /// A packet was dispatched into service at sim time `t_ns`. The
    /// common case — same interval as the last dispatch — is a single
    /// compare.
    #[inline]
    pub fn on_dispatch(&mut self, t_ns: u64) {
        if !self.has_cur || t_ns >= self.cur_end_ns || t_ns < self.cur_end_ns - self.interval_ns {
            self.seek(t_ns / self.interval_ns);
        }
        self.dispatches[self.cur_slot] += 1;
    }

    /// Total dispatches across retained intervals.
    pub fn total_dispatches(&self) -> u64 {
        self.dispatches.iter().sum()
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
        ts.on_dispatch(0);
        ts.on_dispatch(99);
        ts.on_dispatch(100);
        ts.on_dispatch(250);
        ts.on_dispatch(50);
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
        // Writes into an evicted interval land in a recreated bin only
        // if still inside the window; here interval 6 is retained.
        ts.on_dispatch(650);
        assert_eq!(ts.bins().next(), Some((6, 2)));
    }
}
