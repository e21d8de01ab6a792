//! Improvement direction and scalability of metrics.

use std::cmp::Ordering;

/// Which way a metric improves.
///
/// Throughput improves upward; latency and every cost metric improve
/// downward. Making the direction explicit lets the comparison engine
/// normalize "better" without baking in assumptions per metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Larger values are better (throughput, fairness index).
    HigherIsBetter,
    /// Smaller values are better (latency, loss, all costs).
    LowerIsBetter,
}

impl Direction {
    /// Compares two raw values under this direction: `Ordering::Greater`
    /// means `a` is *better* than `b`. Uses `total_cmp`, so there is no
    /// panic path; metric values are finite by `Quantity` construction.
    pub fn compare(self, a: f64, b: f64) -> Ordering {
        let natural = a.total_cmp(&b);
        match self {
            Direction::HigherIsBetter => natural,
            Direction::LowerIsBetter => natural.reverse(),
        }
    }

    /// True when `a` is strictly better than `b` under this direction.
    pub fn is_better(self, a: f64, b: f64) -> bool {
        self.compare(a, b) == Ordering::Greater
    }

    /// True when `a` is at least as good as `b` under this direction.
    pub fn is_at_least_as_good(self, a: f64, b: f64) -> bool {
        self.compare(a, b) != Ordering::Less
    }
}

/// Whether a metric scales when the system is horizontally scaled.
///
/// §4.2 relies on scaling the baseline to the proposed system's
/// comparison region; §4.3 observes that some metrics (latency, Jain's
/// fairness index) do not improve by replicating the system, so scaled
/// comparisons are invalid for them (Principle 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scalability {
    /// Replicating the system multiplies the metric (throughput: two
    /// replicas serve twice the load, at best).
    Scalable,
    /// Replication does not (beyond second-order load effects) improve
    /// the metric; the §4.3 non-scalable comparison rules apply.
    NonScalable,
}

impl Scalability {
    /// True for [`Scalability::Scalable`].
    pub fn is_scalable(self) -> bool {
        matches!(self, Scalability::Scalable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_is_better_orders_naturally() {
        assert!(Direction::HigherIsBetter.is_better(15.0, 10.0));
        assert!(!Direction::HigherIsBetter.is_better(10.0, 15.0));
        assert!(Direction::HigherIsBetter.is_at_least_as_good(10.0, 10.0));
    }

    #[test]
    fn lower_is_better_reverses() {
        assert!(Direction::LowerIsBetter.is_better(5.0, 10.0));
        assert!(!Direction::LowerIsBetter.is_better(10.0, 5.0));
        assert!(Direction::LowerIsBetter.is_at_least_as_good(5.0, 5.0));
    }

    #[test]
    fn equal_values_are_not_strictly_better() {
        assert!(!Direction::HigherIsBetter.is_better(7.0, 7.0));
        assert!(!Direction::LowerIsBetter.is_better(7.0, 7.0));
    }

    #[test]
    fn scalability_flag() {
        assert!(Scalability::Scalable.is_scalable());
        assert!(!Scalability::NonScalable.is_scalable());
    }
}
