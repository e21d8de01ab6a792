//! Measurement collection: throughput, loss, latency, per-flow service.
//!
//! The sink computes exactly the performance metrics the methodology
//! consumes: delivered bits/packets per second, loss fraction, latency
//! percentiles from a log-linear histogram (HDR-style: bounded relative
//! error at every magnitude, [`LogHistogram`]), and per-flow byte
//! counts for Jain's fairness index.

use apples_metrics::fairness::jains_index;
use apples_obs::{LogHistogram, TraceDrop};

/// Aggregated sink-side statistics for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkStats {
    delivered_packets: u64,
    delivered_bits: u64,
    queue_drops: u64,
    policy_drops: u64,
    fault_drops: u64,
    latency: LogHistogram,
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
            latency: LogHistogram::new(),
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

    /// Records a packet dropped for `cause`.
    pub fn drop(&mut self, cause: TraceDrop) {
        match cause {
            TraceDrop::QueueFull => self.queue_drops += 1,
            TraceDrop::Policy => self.policy_drops += 1,
            TraceDrop::Fault => self.fault_drops += 1,
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

    /// The end-to-end latency histogram, in nanoseconds.
    pub fn latency(&self) -> &LogHistogram {
        &self.latency
    }

    /// Jain's fairness index over per-flow delivered bytes, or `None`
    /// when nothing was delivered.
    pub fn jain_index(&self) -> Option<f64> {
        let alloc: Vec<f64> = self.per_flow_bytes.iter().map(|b| *b as f64).collect();
        jains_index(&alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_throughput_and_loss() {
        let mut s = SinkStats::new(2);
        // Two delivered packets of 84 wire-bytes each over 1 ms.
        s.deliver(0, 84 * 8, 1000);
        s.deliver(1, 84 * 8, 2000);
        s.drop(TraceDrop::QueueFull);
        s.drop(TraceDrop::Policy);
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
}
