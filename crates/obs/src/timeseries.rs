//! A deterministic sim-time time-series ring.
//!
//! The run is cut into fixed sim-time intervals (`interval_ns` wide);
//! each retained interval holds one [`SeriesBin`] of counters (events
//! dispatched, enqueues, drops, faults) and gauges (peak live events,
//! peak event-queue occupancy, per-stage peak queue depth). The ring
//! keeps the most recent [`TimeSeries::capacity`] intervals: when a new
//! interval opens past the window, the oldest bins are evicted, so
//! memory stays flat on arbitrarily long runs.
//!
//! Everything here is keyed by *sim time*, so the series is a pure
//! function of `(seed, spec)`, and its counter fields are identical
//! across fusion modes. One run's whole event stream feeds one series,
//! so each gauge is the exact peak the run reached in its interval.

use apples_core::json::Json;

/// Default interval width: 2^20 ns ≈ 1.05 ms of sim time per bin.
pub const DEFAULT_INTERVAL_NS: u64 = 1 << 20;

/// Default ring bound: at the default interval this retains ~0.5 s of
/// sim time, far past the bench windows, on a fixed footprint.
pub const DEFAULT_SERIES_CAPACITY: usize = 512;

/// One interval's worth of metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesBin {
    /// Packets dispatched into service this interval (the throughput
    /// numerator: `dispatches / interval_ns`).
    pub dispatches: u64,
    /// Packets enqueued this interval.
    pub enqueues: u64,
    /// Packets dropped this interval, all causes.
    pub drops: u64,
    /// Fault-plan actions applied this interval.
    pub faults: u64,
    /// Peak live (in-flight) events observed this interval.
    pub peak_live: u64,
    /// Peak event-queue occupancy observed this interval.
    pub peak_sched: u64,
    /// Peak queue depth per stage this interval, index-aligned with
    /// the deployment's stage list (grows on demand).
    pub stage_peak_depth: Vec<u64>,
}

impl SeriesBin {
    /// The deepest per-stage queue this interval, across all stages.
    pub fn deepest_stage_depth(&self) -> u64 {
        self.stage_peak_depth.iter().copied().max().unwrap_or(0)
    }
}

/// The ring: retained `(interval index, bin)` pairs, ascending by
/// index, at most `cap` of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    interval_ns: u64,
    cap: usize,
    /// Retained interval indices, strictly ascending; parallel to
    /// `bins`.
    idxs: Vec<u64>,
    bins: Vec<SeriesBin>,
    /// Hot-path cache: the slot of the interval most recently written,
    /// valid while `has_cur`. Lets the per-event hooks update the
    /// current bin with one compare instead of a division + search.
    cur_slot: usize,
    cur_idx: u64,
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
            bins: Vec::new(),
            cur_slot: 0,
            cur_idx: 0,
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

    /// Retained `(interval index, bin)` pairs, ascending by index.
    pub fn bins(&self) -> impl Iterator<Item = (u64, &SeriesBin)> {
        self.idxs.iter().copied().zip(self.bins.iter())
    }

    /// The bin covering sim time `t_ns`, creating (and evicting) as
    /// needed. The common case — same interval as the last write — is a
    /// single compare.
    #[inline]
    fn bin_at(&mut self, t_ns: u64) -> &mut SeriesBin {
        if !self.has_cur || t_ns >= self.cur_end_ns || t_ns < self.cur_end_ns - self.interval_ns {
            self.seek(t_ns / self.interval_ns);
        }
        &mut self.bins[self.cur_slot]
    }

    /// Cold path: position the cache on interval `idx`, inserting an
    /// empty bin and evicting past-window bins as needed.
    fn seek(&mut self, idx: u64) {
        match self.idxs.binary_search(&idx) {
            Ok(slot) => self.cur_slot = slot,
            Err(slot) => {
                self.idxs.insert(slot, idx);
                self.bins.insert(slot, SeriesBin::default());
                self.evict();
                // Eviction only removes from the front, so re-search.
                self.cur_slot = self.idxs.binary_search(&idx).unwrap_or(0);
            }
        }
        self.cur_idx = idx;
        self.cur_end_ns = (idx + 1).saturating_mul(self.interval_ns);
        self.has_cur = true;
    }

    /// Drops every bin older than `max_idx - cap + 1`. The threshold is
    /// a pure function of the maximum interval ever retained, which only
    /// grows, so an evicted interval never returns.
    fn evict(&mut self) {
        let Some(&max_idx) = self.idxs.last() else { return };
        let threshold = max_idx.saturating_sub(self.cap as u64 - 1);
        let keep_from = self.idxs.partition_point(|&i| i < threshold);
        if keep_from > 0 {
            self.idxs.drain(..keep_from);
            self.bins.drain(..keep_from);
        }
    }

    /// A packet was dispatched into service at sim time `t_ns`.
    #[inline]
    pub fn on_dispatch(&mut self, t_ns: u64) {
        self.bin_at(t_ns).dispatches += 1;
    }

    /// A packet was enqueued at `stage` at sim time `t_ns`; `depth` is
    /// the queue depth after.
    #[inline]
    pub fn on_enqueue(&mut self, t_ns: u64, stage: usize, depth: u64) {
        let bin = self.bin_at(t_ns);
        bin.enqueues += 1;
        if bin.stage_peak_depth.len() <= stage {
            bin.stage_peak_depth.resize(stage + 1, 0);
        }
        bin.stage_peak_depth[stage] = bin.stage_peak_depth[stage].max(depth);
    }

    /// A packet was dropped at sim time `t_ns`.
    #[inline]
    pub fn on_drop(&mut self, t_ns: u64) {
        self.bin_at(t_ns).drops += 1;
    }

    /// A fault-plan action was applied at sim time `t_ns`.
    #[inline]
    pub fn on_fault(&mut self, t_ns: u64) {
        self.bin_at(t_ns).faults += 1;
    }

    /// Gauge sample at sim time `t_ns`: `live` in-flight events and
    /// `sched_len` events resident in the event queue. The engine calls
    /// this once per drained bucket.
    #[inline]
    pub fn on_tick(&mut self, t_ns: u64, live: u64, sched_len: u64) {
        let bin = self.bin_at(t_ns);
        bin.peak_live = bin.peak_live.max(live);
        bin.peak_sched = bin.peak_sched.max(sched_len);
    }

    /// Total dispatches across retained intervals.
    pub fn total_dispatches(&self) -> u64 {
        self.bins.iter().map(|b| b.dispatches).sum()
    }

    /// The busiest retained interval: `(index, dispatches)`, preferring
    /// the earliest on ties.
    pub fn peak_interval(&self) -> Option<(u64, u64)> {
        self.bins()
            .max_by_key(|(idx, b)| (b.dispatches, u64::MAX - idx))
            .map(|(idx, b)| (idx, b.dispatches))
    }

    /// Deterministic JSON: interval geometry plus one object per
    /// retained interval.
    pub fn to_json(&self) -> Json {
        let series: Vec<Json> = self
            .bins()
            .map(|(idx, b)| {
                Json::obj()
                    .field("interval", idx)
                    .field("t_ms", (idx * self.interval_ns) as f64 / 1e6)
                    .field("dispatches", b.dispatches)
                    .field("enqueues", b.enqueues)
                    .field("drops", b.drops)
                    .field("faults", b.faults)
                    .field("peak_live", b.peak_live)
                    .field("peak_sched", b.peak_sched)
                    .field("peak_depth", b.deepest_stage_depth())
            })
            .collect();
        let mut obj = Json::obj()
            .field("interval_ns", self.interval_ns)
            .field("intervals", self.idxs.len() as u64)
            .field("total_dispatches", self.total_dispatches());
        if let Some((idx, peak)) = self.peak_interval() {
            let meps = peak as f64 * 1e3 / self.interval_ns as f64;
            obj = obj.field("peak_interval", idx).field("peak_throughput_meps", meps);
        }
        obj.field("series", Json::Arr(series))
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
        ts.on_enqueue(150, 2, 7);
        ts.on_drop(250);
        ts.on_fault(250);
        ts.on_tick(50, 12, 40);
        assert_eq!(ts.len(), 3);
        let bins: Vec<_> = ts.bins().collect();
        assert_eq!(bins[0].0, 0);
        assert_eq!(bins[0].1.dispatches, 2);
        assert_eq!((bins[0].1.peak_live, bins[0].1.peak_sched), (12, 40));
        assert_eq!(bins[1].1.dispatches, 1);
        assert_eq!(bins[1].1.stage_peak_depth, vec![0, 0, 7]);
        assert_eq!((bins[2].1.drops, bins[2].1.faults), (1, 1));
        assert_eq!(ts.total_dispatches(), 3);
        assert_eq!(ts.peak_interval(), Some((0, 2)));
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
        assert_eq!(ts.bins().next().unwrap().1.dispatches, 2);
    }

    #[test]
    fn json_has_the_advertised_keys() {
        let mut ts = TimeSeries::default();
        ts.on_dispatch(5);
        ts.on_dispatch(6);
        let s = ts.to_json().render();
        for key in [
            "\"interval_ns\"",
            "\"intervals\"",
            "\"total_dispatches\"",
            "\"peak_throughput_meps\"",
            "\"series\"",
            "\"peak_depth\"",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
