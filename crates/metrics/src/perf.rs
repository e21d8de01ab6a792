//! Performance metric descriptors and values.

use crate::direction::{Direction, Scalability};
use crate::quantity::Quantity;
use crate::unit::Unit;
use std::fmt;

/// A performance metric: what is measured, which way it improves, and
/// whether horizontal scaling improves it (§4.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PerfMetric {
    name: &'static str,
    unit: Unit,
    direction: Direction,
    scalability: Scalability,
}

impl PerfMetric {
    /// Defines a custom performance metric.
    pub const fn new(
        name: &'static str,
        unit: Unit,
        direction: Direction,
        scalability: Scalability,
    ) -> Self {
        PerfMetric { name, unit, direction, scalability }
    }

    /// Data-rate throughput in bits per second (scalable, higher better).
    pub const fn throughput_bps() -> Self {
        PerfMetric::new(
            "throughput",
            Unit::BitsPerSecond,
            Direction::HigherIsBetter,
            Scalability::Scalable,
        )
    }

    /// Packet-rate throughput (RFC 2544 minimum-size-packet tests).
    pub const fn throughput_pps() -> Self {
        PerfMetric::new(
            "packet rate",
            Unit::PacketsPerSecond,
            Direction::HigherIsBetter,
            Scalability::Scalable,
        )
    }

    /// End-to-end latency. Non-scalable: replicating a system does not
    /// push latency below its unloaded floor (§4.3 footnote 4).
    pub const fn latency() -> Self {
        PerfMetric::new(
            "latency",
            Unit::Seconds,
            Direction::LowerIsBetter,
            Scalability::NonScalable,
        )
    }

    /// 99th-percentile latency; same scalability caveat as mean latency.
    pub const fn p99_latency() -> Self {
        PerfMetric::new(
            "p99 latency",
            Unit::Seconds,
            Direction::LowerIsBetter,
            Scalability::NonScalable,
        )
    }

    /// Packet-loss fraction in `[0, 1]` (lower is better, scalable — more
    /// capacity sheds load).
    pub const fn loss_rate() -> Self {
        PerfMetric::new("loss rate", Unit::Ratio, Direction::LowerIsBetter, Scalability::Scalable)
    }

    /// Jain's fairness index in `(0, 1]`. Explicitly called out by §4.3
    /// (citing Jain et al. 1984) as a metric that does not scale.
    pub const fn jains_fairness_index() -> Self {
        PerfMetric::new(
            "Jain's fairness index",
            Unit::Ratio,
            Direction::HigherIsBetter,
            Scalability::NonScalable,
        )
    }

    /// The metric's human-readable name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The unit measurements must be expressed in.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Which way the metric improves.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Whether horizontal scaling improves the metric.
    pub fn scalability(&self) -> Scalability {
        self.scalability
    }

    /// Wraps a raw measurement, checking the unit.
    pub fn value(&self, q: Quantity) -> PerfValue {
        assert_eq!(
            q.unit(),
            self.unit,
            "measurement unit {} does not match metric '{}' ({})",
            q.unit(),
            self.name,
            self.unit
        );
        PerfValue { metric: self.clone(), quantity: q }
    }
}

impl fmt::Display for PerfMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.unit)
    }
}

/// A measured performance value tagged with its metric.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfValue {
    metric: PerfMetric,
    quantity: Quantity,
}

impl PerfValue {
    /// The metric this value measures.
    pub fn metric(&self) -> &PerfMetric {
        &self.metric
    }

    /// The measured quantity.
    pub fn quantity(&self) -> Quantity {
        self.quantity
    }

    /// True when `self` is strictly better than `other` under the
    /// metric's direction. Panics if the metrics differ — comparing
    /// latency against throughput is a category error the caller must
    /// not make.
    pub fn is_better_than(&self, other: &PerfValue) -> bool {
        self.assert_same_metric(other);
        self.metric.direction.is_better(self.quantity.value(), other.quantity.value())
    }

    /// True when `self` is at least as good as `other`.
    pub fn is_at_least_as_good_as(&self, other: &PerfValue) -> bool {
        self.assert_same_metric(other);
        self.metric.direction.is_at_least_as_good(self.quantity.value(), other.quantity.value())
    }

    /// True when the two values are equal within `rel_tol` (used by
    /// operating-regime detection).
    pub fn approx_eq(&self, other: &PerfValue, rel_tol: f64) -> bool {
        self.metric == other.metric && self.quantity.approx_eq(other.quantity, rel_tol)
    }

    fn assert_same_metric(&self, other: &PerfValue) {
        assert_eq!(
            self.metric, other.metric,
            "cannot compare values of different performance metrics: '{}' vs '{}'",
            self.metric.name, other.metric.name
        );
    }
}

impl fmt::Display for PerfValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.metric.name, self.quantity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantity::{gbps, micros, ratio};

    #[test]
    fn throughput_direction_and_scalability() {
        let m = PerfMetric::throughput_bps();
        assert_eq!(m.direction(), Direction::HigherIsBetter);
        assert!(m.scalability().is_scalable());
    }

    #[test]
    fn latency_is_non_scalable_lower_better() {
        let m = PerfMetric::latency();
        assert_eq!(m.direction(), Direction::LowerIsBetter);
        assert!(!m.scalability().is_scalable());
    }

    #[test]
    fn jfi_is_non_scalable() {
        assert!(!PerfMetric::jains_fairness_index().scalability().is_scalable());
    }

    #[test]
    fn value_comparisons_follow_direction() {
        let m = PerfMetric::throughput_bps();
        assert!(m.value(gbps(20.0)).is_better_than(&m.value(gbps(10.0))));
        let l = PerfMetric::latency();
        assert!(l.value(micros(5.0)).is_better_than(&l.value(micros(10.0))));
        assert!(l.value(micros(5.0)).is_at_least_as_good_as(&l.value(micros(5.0))));
    }

    #[test]
    #[should_panic(expected = "unit")]
    fn wrong_unit_rejected() {
        let _ = PerfMetric::throughput_bps().value(micros(5.0));
    }

    #[test]
    #[should_panic(expected = "different performance metrics")]
    fn cross_metric_comparison_rejected() {
        let t = PerfMetric::loss_rate().value(ratio(0.0));
        let j = PerfMetric::jains_fairness_index().value(ratio(1.0));
        let _ = t.is_better_than(&j);
    }

    #[test]
    fn display_formats() {
        assert_eq!(PerfMetric::latency().to_string(), "latency [s]");
        let v = PerfMetric::throughput_bps().value(gbps(10.0));
        assert_eq!(v.to_string(), "throughput=10.000 Gbit/s");
    }
}
