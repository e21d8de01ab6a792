//! Measurement collection: throughput, loss, latency, per-flow service.
//!
//! The sink computes exactly the performance metrics the methodology
//! consumes: delivered bits/packets per second, loss fraction, latency
//! percentiles from a log-linear histogram (HDR-style: bounded relative
//! error at every magnitude), and per-flow byte counts for Jain's
//! fairness index.

use apples_metrics::fairness::jains_index;

/// A log-linear latency histogram over nanoseconds.
///
/// Buckets have 64 linear sub-buckets per power-of-two magnitude, giving
/// ≤ ~1.6% relative error across the full `u64` range with a fixed,
/// allocation-free footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max_ns: u64,
    sum_ns: u128,
}

const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = 6;

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // Magnitudes 0..=57 cover the u64 range above the linear region.
        LatencyHistogram {
            counts: vec![0; (58 * SUB_BUCKETS) as usize],
            total: 0,
            max_ns: 0,
            sum_ns: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        let mag = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = mag - SUB_BITS + 1;
        let sub = (v >> shift) - SUB_BUCKETS / 2 + SUB_BUCKETS / 2; // top bits
        let base = (u64::from(mag) - SUB_BITS as u64 + 1) * SUB_BUCKETS;
        (base + (sub - SUB_BUCKETS / 2)) as usize
    }

    fn bucket_value(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB_BUCKETS {
            return i;
        }
        let mag = i / SUB_BUCKETS + SUB_BITS as u64 - 1;
        let sub = i % SUB_BUCKETS + SUB_BUCKETS / 2;
        let shift = mag - SUB_BITS as u64 + 1;
        // Midpoint of the bucket.
        (sub << shift) + (1 << (shift - 1))
    }

    /// Records one latency observation.
    pub fn record(&mut self, ns: u64) {
        let idx = Self::index(ns).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
        self.sum_ns += u128::from(ns);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.total as f64
        }
    }

    /// The maximum recorded value (exact).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Approximate latency at quantile `q` in `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a packet failed to reach the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// A stage's queue was full (overload loss).
    QueueFull,
    /// A network function's policy dropped it (firewall deny, IDS block).
    Policy,
    /// The fault-injection layer lost it (injection-point loss or a
    /// device outage while the packet queued for a down stage).
    Fault,
}

/// Aggregated sink-side statistics for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkStats {
    delivered_packets: u64,
    delivered_bits: u64,
    queue_drops: u64,
    policy_drops: u64,
    fault_drops: u64,
    latency: LatencyHistogram,
    per_flow_bytes: Vec<u64>,
}

impl SinkStats {
    /// Creates stats for a workload with `flows` flows.
    pub fn new(flows: usize) -> Self {
        SinkStats {
            delivered_packets: 0,
            delivered_bits: 0,
            queue_drops: 0,
            policy_drops: 0,
            fault_drops: 0,
            latency: LatencyHistogram::new(),
            per_flow_bytes: vec![0; flows],
        }
    }

    /// Records a delivered packet and its end-to-end latency.
    pub fn deliver(&mut self, flow: u32, wire_bits: u64, latency_ns: u64) {
        self.delivered_packets += 1;
        self.delivered_bits += wire_bits;
        self.latency.record(latency_ns);
        if let Some(b) = self.per_flow_bytes.get_mut(flow as usize) {
            *b += wire_bits / 8;
        }
    }

    /// Records a dropped packet.
    pub fn drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::QueueFull => self.queue_drops += 1,
            DropReason::Policy => self.policy_drops += 1,
            DropReason::Fault => self.fault_drops += 1,
        }
    }

    /// Delivered packets.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Packets dropped due to queue overflow.
    pub fn queue_drops(&self) -> u64 {
        self.queue_drops
    }

    /// Packets dropped by NF policy (these are *work done*, not loss).
    pub fn policy_drops(&self) -> u64 {
        self.policy_drops
    }

    /// Packets lost to injected faults (injection-point loss plus
    /// outage-window drops).
    pub fn fault_drops(&self) -> u64 {
        self.fault_drops
    }

    /// Delivered throughput in bits/second over `duration_ns`.
    pub fn throughput_bps(&self, duration_ns: u64) -> f64 {
        if duration_ns == 0 {
            return 0.0;
        }
        self.delivered_bits as f64 / (duration_ns as f64 * 1e-9)
    }

    /// Delivered packet rate in packets/second over `duration_ns`.
    pub fn throughput_pps(&self, duration_ns: u64) -> f64 {
        if duration_ns == 0 {
            return 0.0;
        }
        self.delivered_packets as f64 / (duration_ns as f64 * 1e-9)
    }

    /// Overload loss fraction (queue drops over packets offered to
    /// queues, i.e. excluding policy drops).
    pub fn loss_rate(&self) -> f64 {
        let offered = self.delivered_packets + self.queue_drops;
        if offered == 0 {
            0.0
        } else {
            self.queue_drops as f64 / offered as f64
        }
    }

    /// The latency histogram.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Jain's fairness index over per-flow delivered bytes, or `None`
    /// when nothing was delivered.
    pub fn jain_index(&self) -> Option<f64> {
        let alloc: Vec<f64> = self.per_flow_bytes.iter().map(|b| *b as f64).collect();
        jains_index(&alloc)
    }

    /// Per-flow delivered bytes.
    pub fn per_flow_bytes(&self) -> &[u64] {
        &self.per_flow_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apples_rng::Rng;

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        // Rank 1 lands in the exact linear region: value 0.
        assert_eq!(h.quantile_ns(0.0), 0);
        assert!(h.quantile_ns(1.0) >= 63);
    }

    #[test]
    fn histogram_relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        let v = 1_234_567_890u64;
        h.record(v);
        let q = h.quantile_ns(0.5);
        let err = (q as f64 - v as f64).abs() / v as f64;
        assert!(err < 0.02, "relative error {err}");
    }

    #[test]
    fn histogram_percentiles_are_ordered() {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            h.record(x % 10_000_000);
        }
        let p50 = h.quantile_ns(0.5);
        let p90 = h.quantile_ns(0.9);
        let p99 = h.quantile_ns(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(h.mean_ns() > 0.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn sink_throughput_and_loss() {
        let mut s = SinkStats::new(2);
        // Two delivered packets of 84 wire-bytes each over 1 ms.
        s.deliver(0, 84 * 8, 1000);
        s.deliver(1, 84 * 8, 2000);
        s.drop(DropReason::QueueFull);
        s.drop(DropReason::Policy);
        let dur = 1_000_000; // 1 ms
        assert!((s.throughput_bps(dur) - 2.0 * 84.0 * 8.0 / 1e-3).abs() < 1.0);
        assert!((s.throughput_pps(dur) - 2000.0).abs() < 1e-9);
        assert!((s.loss_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.policy_drops(), 1);
        assert_eq!(s.delivered_packets(), 2);
    }

    #[test]
    fn jain_index_reflects_flow_balance() {
        let mut s = SinkStats::new(2);
        s.deliver(0, 800, 10);
        s.deliver(1, 800, 10);
        assert!((s.jain_index().unwrap() - 1.0).abs() < 1e-12);
        let mut skewed = SinkStats::new(2);
        skewed.deliver(0, 800, 10);
        assert!((skewed.jain_index().unwrap() - 0.5).abs() < 1e-12);
        let empty = SinkStats::new(2);
        assert_eq!(empty.jain_index(), None);
    }

    #[test]
    fn zero_duration_rates_are_zero() {
        let s = SinkStats::new(1);
        assert_eq!(s.throughput_bps(0), 0.0);
        assert_eq!(s.throughput_pps(0), 0.0);
    }

    #[test]
    fn histogram_quantile_error_bounded_everywhere() {
        let mut rng = Rng::seed_from_u64(0x41571);
        for _ in 0..1000 {
            let v = rng.range_u64(1, u64::MAX / 4);
            let mut h = LatencyHistogram::new();
            h.record(v);
            let q = h.quantile_ns(0.5);
            let err = (q as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.02, "v={v} q={q} err={err}");
        }
    }

    #[test]
    fn histogram_count_matches_records() {
        let mut rng = Rng::seed_from_u64(0x41572);
        for _ in 0..500 {
            let vs: Vec<u64> =
                (0..rng.range_usize(0, 200)).map(|_| rng.range_u64(0, 1_000_000)).collect();
            let mut h = LatencyHistogram::new();
            for v in &vs {
                h.record(*v);
            }
            assert_eq!(h.count(), vs.len() as u64);
            if let Some(max) = vs.iter().max() {
                assert_eq!(h.max_ns(), *max);
                assert!(h.quantile_ns(1.0) <= *max);
            }
        }
    }
}
