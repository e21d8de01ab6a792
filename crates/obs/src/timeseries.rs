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
//! function of `(seed, spec)` — identical across fusion modes and
//! shard counts for the counter fields. Cross-shard merge is
//! commutative and associative like [`crate::LogHistogram`]: bins align
//! by interval index, counters add, gauges take the max, and the
//! eviction threshold is the max interval seen minus the capacity —
//! which only grows, so merging early evicts exactly the bins the final
//! threshold would evict (property-tested in `tests/observability.rs`).
//! Gauges merged across shards are per-shard maxima summed over nothing
//! — they bound, rather than equal, the serial gauge (each shard sees
//! only its own live events), which is why identity gates compare
//! counters, never gauges.

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
    /// Folds `other` into `self`: counters add, gauges take the max,
    /// the narrower stage vector is padded.
    fn merge(&mut self, other: &SeriesBin) {
        self.dispatches += other.dispatches;
        self.enqueues += other.enqueues;
        self.drops += other.drops;
        self.faults += other.faults;
        self.peak_live = self.peak_live.max(other.peak_live);
        self.peak_sched = self.peak_sched.max(other.peak_sched);
        if self.stage_peak_depth.len() < other.stage_peak_depth.len() {
            self.stage_peak_depth.resize(other.stage_peak_depth.len(), 0);
        }
        for (mine, theirs) in self.stage_peak_depth.iter_mut().zip(other.stage_peak_depth.iter()) {
            *mine = (*mine).max(*theirs);
        }
    }

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
    /// grows — the property that makes merge order-insensitive.
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

    /// Merges another series into this one: bins align by interval
    /// index, counters add, gauges take the max, and the union is
    /// re-evicted against the combined maximum interval. Commutative
    /// and associative; the empty series is the identity. Panics if the
    /// interval widths differ (shards of one run always share the
    /// observer's configured width).
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.interval_ns, other.interval_ns,
            "cannot merge time series with different interval widths"
        );
        self.has_cur = false;
        for (idx, bin) in other.bins() {
            match self.idxs.binary_search(&idx) {
                Ok(slot) => self.bins[slot].merge(bin),
                Err(slot) => {
                    self.idxs.insert(slot, idx);
                    self.bins.insert(slot, bin.clone());
                }
            }
        }
        self.evict();
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

    /// A compact deterministic rendering of every retained bin — what
    /// the merge-algebra property tests compare. Covers all counter and
    /// gauge fields plus the interval geometry.
    pub fn fingerprint(&self) -> String {
        let mut out = format!("interval={} cap={}", self.interval_ns, self.cap);
        for (idx, b) in self.bins() {
            out.push_str(&format!(
                "|{}:d{},e{},x{},f{},l{},s{},q{:?}",
                idx,
                b.dispatches,
                b.enqueues,
                b.drops,
                b.faults,
                b.peak_live,
                b.peak_sched,
                b.stage_peak_depth
            ));
        }
        out
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
    fn merge_is_commutative_and_associative_with_identity() {
        let mk = |offset: u64| {
            let mut ts = series(16);
            for i in 0..20u64 {
                ts.on_dispatch(offset + i * 37);
                ts.on_tick(offset + i * 37, i, 2 * i);
            }
            ts
        };
        let (a, b, c) = (mk(0), mk(500), mk(900));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut c_ba = c.clone();
        c_ba.merge(&b);
        c_ba.merge(&a);
        assert_eq!(ab_c.fingerprint(), c_ba.fingerprint());
        let mut with_id = a.clone();
        with_id.merge(&series(16));
        assert_eq!(with_id.fingerprint(), a.fingerprint());
    }

    #[test]
    fn merge_eviction_matches_direct_recording() {
        // A merge whose union spans more than `cap` intervals must land
        // on the same retained window as recording everything into one
        // series directly.
        let mut whole = series(3);
        let mut lo = series(3);
        let mut hi = series(3);
        for i in 0..9u64 {
            whole.on_dispatch(i * 100);
            if i < 5 {
                lo.on_dispatch(i * 100);
            } else {
                hi.on_dispatch(i * 100);
            }
        }
        let mut merged = lo.clone();
        merged.merge(&hi);
        assert_eq!(merged.fingerprint(), whole.fingerprint());
        let mut merged_rev = hi;
        merged_rev.merge(&lo);
        assert_eq!(merged_rev.fingerprint(), whole.fingerprint());
    }

    #[test]
    fn gauges_max_and_counters_add_on_merge() {
        let mut a = series(8);
        a.on_tick(10, 5, 100);
        a.on_enqueue(10, 0, 3);
        let mut b = series(8);
        b.on_tick(20, 9, 50);
        b.on_enqueue(10, 1, 8);
        a.merge(&b);
        let bin = a.bins().next().unwrap().1.clone();
        assert_eq!(bin.enqueues, 2);
        assert_eq!(bin.stage_peak_depth, vec![3, 8]);
        assert_eq!(bin.peak_live, 9);
        assert_eq!(bin.peak_sched, 100);
        assert_eq!(bin.deepest_stage_depth(), 8);
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
