//! Flow monitoring with a count–min sketch and heavy-hitter detection.
//!
//! Telemetry is the NF most often pushed into programmable switches
//! (sketches fit match-action pipelines); having it in software gives
//! the offload experiments a second, state-heavy workload besides the
//! firewall.

use super::{NetworkFunction, NfVerdict};
use crate::packet::Packet;
use apples_workload::FiveTuple;

/// Cycles per sketch row updated.
pub const PER_ROW_CYCLES: u64 = 40;
/// Fixed per-packet cycles.
pub const BASE_CYCLES: u64 = 100;

/// A count–min sketch over flow byte counts.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    rows: usize,
    cols: usize,
    counters: Vec<u64>,
    salts: Vec<u64>,
    total: u64,
}

impl CountMinSketch {
    /// Creates a sketch with `rows` hash rows and `cols` counters each.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "sketch dimensions must be positive");
        CountMinSketch {
            rows,
            cols,
            counters: vec![0; rows * cols],
            salts: (0..rows as u64).map(|i| i.wrapping_mul(0xD6E8FEB86659FD93) | 1).collect(),
            total: 0,
        }
    }

    fn col(&self, row: usize, key: u64) -> usize {
        let mut x = key ^ self.salts[row];
        x = (x ^ (x >> 33)).wrapping_mul(0xFF51AFD7ED558CCD);
        x = (x ^ (x >> 33)).wrapping_mul(0xC4CEB9FE1A85EC53);
        (x ^ (x >> 33)) as usize % self.cols
    }

    /// Adds `amount` to a flow's estimate.
    pub fn add(&mut self, key: u64, amount: u64) {
        for r in 0..self.rows {
            let c = self.col(r, key);
            self.counters[r * self.cols + c] += amount;
        }
        self.total += amount;
    }

    /// Point estimate for a flow (an overestimate, never an under-).
    pub fn estimate(&self, key: u64) -> u64 {
        (0..self.rows).map(|r| self.counters[r * self.cols + self.col(r, key)]).min().unwrap_or(0)
    }

    /// Total of all additions.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// [`add`](Self::add) that also returns the flow's estimate just
    /// before and just after, in one pass over the rows: each row's
    /// column is computed once. The values equal `estimate`, `add`,
    /// `estimate` in turn, wraparound included, because each row's
    /// counters are disjoint from every other row's.
    fn add_between_estimates(&mut self, key: u64, amount: u64) -> (u64, u64) {
        let (mut before, mut after) = (u64::MAX, u64::MAX);
        for r in 0..self.rows {
            let i = r * self.cols + self.col(r, key);
            let counter = &mut self.counters[i];
            before = before.min(*counter);
            *counter += amount;
            after = after.min(*counter);
        }
        self.total += amount;
        (before, after)
    }
}

/// The flow-monitor NF: updates the sketch per packet and tracks flows
/// whose estimate crosses the heavy-hitter threshold.
pub struct FlowMonitor {
    sketch: CountMinSketch,
    threshold_bytes: u64,
    heavy: Vec<FiveTuple>,
}

impl FlowMonitor {
    /// Creates a monitor with sketch dimensions and a byte threshold.
    pub fn new(rows: usize, cols: usize, threshold_bytes: u64) -> Self {
        FlowMonitor { sketch: CountMinSketch::new(rows, cols), threshold_bytes, heavy: Vec::new() }
    }

    /// Flows flagged as heavy hitters so far, in flag order.
    pub fn heavy_hitters(&self) -> &[FiveTuple] {
        &self.heavy
    }

    /// Access to the underlying sketch.
    pub fn sketch(&self) -> &CountMinSketch {
        &self.sketch
    }
}

impl NetworkFunction for FlowMonitor {
    fn name(&self) -> &'static str {
        "flow-monitor"
    }

    fn process(&mut self, pkt: &Packet) -> (NfVerdict, u64) {
        let key = pkt.flow_hash;
        debug_assert_eq!(key, pkt.tuple.hash64(), "the sketch key must be the tuple's hash");
        let (before, after) = self.sketch.add_between_estimates(key, u64::from(pkt.size_bytes));
        if before < self.threshold_bytes && after >= self.threshold_bytes {
            self.heavy.push(pkt.tuple);
        }
        (NfVerdict::Forward, BASE_CYCLES + self.sketch.rows as u64 * PER_ROW_CYCLES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apples_rng::Rng;

    #[test]
    fn estimates_never_underestimate() {
        let mut s = CountMinSketch::new(4, 64);
        for k in 0..200u64 {
            s.add(k, k + 1);
        }
        for k in 0..200u64 {
            assert!(s.estimate(k) > k, "underestimate for key {k}");
        }
        assert_eq!(s.total(), (1..=200).sum::<u64>());
    }

    #[test]
    fn sparse_keys_are_exact() {
        let mut s = CountMinSketch::new(4, 4096);
        s.add(42, 100);
        s.add(43, 50);
        assert_eq!(s.estimate(42), 100);
        assert_eq!(s.estimate(43), 50);
        assert_eq!(s.estimate(99), 0);
    }

    fn pkt(n: u32, size: u32) -> Packet {
        Packet::new(
            u64::from(n),
            n,
            FiveTuple { src_ip: n, dst_ip: 1, src_port: 2, dst_port: 80, proto: 6 },
            size,
            0,
        )
    }

    #[test]
    fn heavy_hitters_flagged_once_at_threshold() {
        let mut m = FlowMonitor::new(4, 1024, 3000);
        for _ in 0..4 {
            m.process(&pkt(7, 1000)); // crosses 3000 on the third packet
        }
        assert_eq!(m.heavy_hitters().len(), 1);
        assert_eq!(m.heavy_hitters()[0].src_ip, 7);
        // Light flow never flagged.
        m.process(&pkt(8, 100));
        assert_eq!(m.heavy_hitters().len(), 1);
    }

    #[test]
    fn monitor_cycle_cost_tracks_rows() {
        let mut m3 = FlowMonitor::new(3, 64, 1 << 40);
        let mut m8 = FlowMonitor::new(8, 64, 1 << 40);
        let (_, c3) = m3.process(&pkt(1, 64));
        let (_, c8) = m8.process(&pkt(1, 64));
        assert_eq!(c3, BASE_CYCLES + 3 * PER_ROW_CYCLES);
        assert_eq!(c8, BASE_CYCLES + 8 * PER_ROW_CYCLES);
    }

    /// The monitor's per-packet update as `estimate`, `add`, `estimate`:
    /// three passes over the rows, kept as the oracle for the one-pass
    /// update.
    fn three_pass(
        sketch: &mut CountMinSketch,
        heavy: &mut Vec<FiveTuple>,
        threshold: u64,
        p: &Packet,
    ) {
        let key = p.tuple.hash64();
        let before = sketch.estimate(key);
        sketch.add(key, u64::from(p.size_bytes));
        let after = sketch.estimate(key);
        if before < threshold && after >= threshold {
            heavy.push(p.tuple);
        }
    }

    #[test]
    fn one_pass_update_matches_three_passes() {
        let mut rng = Rng::seed_from_u64(0x0DD5);
        let mut flagged = 0;
        for _ in 0..40 {
            let (rows, cols) = (rng.range_usize(1, 7), rng.range_usize(1, 64));
            let threshold = rng.range_u64(1, 200_000);
            let mut monitor = FlowMonitor::new(rows, cols, threshold);
            let mut sketch = CountMinSketch::new(rows, cols);
            let mut heavy = Vec::new();
            let flows = rng.range_u32(1, 300);
            for id in 0..rng.range_u32(1, 2_000) {
                let size = rng.range_u32(64, 1519);
                let p = Packet::new(
                    u64::from(id),
                    0,
                    FiveTuple {
                        src_ip: rng.range_u32(0, flows),
                        dst_ip: 1,
                        src_port: 2,
                        dst_port: 80,
                        proto: 6,
                    },
                    size,
                    0,
                );
                monitor.process(&p);
                three_pass(&mut sketch, &mut heavy, threshold, &p);
            }
            assert_eq!(monitor.sketch.counters, sketch.counters);
            assert_eq!(monitor.sketch().total(), sketch.total());
            assert_eq!(monitor.heavy_hitters(), heavy.as_slice());
            flagged += heavy.len();
        }
        assert!(flagged > 0, "no stream crossed its threshold");
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn zero_dimensions_rejected() {
        let _ = CountMinSketch::new(0, 8);
    }

    /// CMS estimates never undershoot the true count, for arbitrary
    /// add sequences (seeded random exploration).
    #[test]
    fn cms_overestimate_property() {
        let mut rng = Rng::seed_from_u64(0xC350);
        for _ in 0..500 {
            let mut s = CountMinSketch::new(3, 32);
            let mut truth = std::collections::BTreeMap::new();
            for _ in 0..rng.range_usize(1, 200) {
                let k = rng.range_u64(0, 64);
                let v = rng.range_u64(1, 1000);
                s.add(k, v);
                *truth.entry(k).or_insert(0u64) += v;
            }
            for (k, v) in truth {
                assert!(s.estimate(k) >= v, "underestimate for key {k}");
            }
        }
    }
}
