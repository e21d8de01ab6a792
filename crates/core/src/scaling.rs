//! Baseline scaling (§4.2, Principles 5 and 6) with the §4.2.1 pitfall
//! guards.
//!
//! When a scalable baseline is outside the proposed system's comparison
//! region, Principle 5 says to scale it into the region; Principle 6 says
//! that when actually provisioning the scaled baseline is impractical,
//! one may *ideally* (linearly) scale it, which is generous to the
//! baseline and therefore safe for claims in the proposed system's favor.
//!
//! The paper lists three pitfalls of ideal scaling, and this module turns
//! each into a mechanical guard:
//!
//! 1. **Only the baseline may be ideally scaled** — the comparison entry
//!    points in [`crate::evaluate`] only ever apply a model to the
//!    baseline; this module additionally exposes the rule as
//!    [`ScalingModel::is_generous_bound`] so reports can say which side
//!    was treated generously.
//! 2. **Cost coverage must be complete when scaling** — a baseline that
//!    uses 1 of 8 host cores but is costed at the whole server must not
//!    be linearly scaled at whole-server cost ([`CostCoverage`] guard).
//! 3. **Not every system or metric is scalable** — scaling refuses
//!    non-scalable performance metrics (latency, JFI) with
//!    [`ScalingError::NonScalableMetric`]; those comparisons must go
//!    through [`crate::nonscalable`] (Principle 7).

use crate::point::OperatingPoint;
use apples_metrics::{Direction, Scalability};
use std::fmt;

/// Whether the baseline's reported cost covers the entire unit being
/// replicated (§4.2.1 pitfall 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostCoverage {
    /// The cost covers exactly the resources the baseline uses; linear
    /// scaling of (perf, cost) together is meaningful.
    FullSystem,
    /// The baseline uses only part of a host whose *whole* cost was
    /// reported (e.g. 1 of 8 cores at full-server watts). Linearly
    /// scaling this is *not* generous: more performance could be had at
    /// the same cost by first filling the host.
    PartialHost {
        /// Resources actually used (e.g. cores).
        used: f64,
        /// Resources the reported cost pays for.
        paid_for: f64,
    },
}

impl CostCoverage {
    /// Returns an error when scaling under this coverage would violate
    /// the §4.2.1 generosity requirement.
    pub fn check(&self) -> Result<(), ScalingError> {
        match *self {
            CostCoverage::FullSystem => Ok(()),
            CostCoverage::PartialHost { used, paid_for } => {
                if used + f64::EPSILON >= paid_for {
                    Ok(())
                } else {
                    Err(ScalingError::PartialCostCoverage { used, paid_for })
                }
            }
        }
    }
}

/// Errors from scaling operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalingError {
    /// The performance metric does not improve under horizontal scaling
    /// (latency, Jain's fairness index — §4.3). Use Principle 7 instead.
    NonScalableMetric {
        /// The metric's name.
        metric: &'static str,
    },
    /// The performance metric is scalable but not multiplicatively (loss
    /// rate shrinks rather than grows with added capacity); the simple
    /// factor model does not apply.
    NonMultiplicativeMetric {
        /// The metric's name.
        metric: &'static str,
    },
    /// A scale factor must be a positive finite number.
    InvalidFactor {
        /// The offending factor.
        factor: f64,
    },
    /// The target performance cannot be reached by this model no matter
    /// how far the system is scaled (e.g. beyond an Amdahl ceiling).
    TargetUnreachable {
        /// The requested performance gain (target / base).
        requested_gain: f64,
        /// The model's asymptotic maximum gain, if finite.
        max_gain: Option<f64>,
    },
    /// §4.2.1 pitfall 2: the baseline's cost pays for more resources than
    /// it uses, so linear scaling at that cost is not generous.
    PartialCostCoverage {
        /// Resources actually used.
        used: f64,
        /// Resources the reported cost pays for.
        paid_for: f64,
    },
}

impl fmt::Display for ScalingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalingError::NonScalableMetric { metric } => write!(
                f,
                "'{metric}' does not improve under horizontal scaling; apply principle 7 \
                 (non-scalable comparison) instead of scaling"
            ),
            ScalingError::NonMultiplicativeMetric { metric } => write!(
                f,
                "'{metric}' is scalable but not multiplicative in the replication factor; \
                 the factor-scaling model does not apply"
            ),
            ScalingError::InvalidFactor { factor } => {
                write!(f, "scale factor must be positive and finite, got {factor}")
            }
            ScalingError::TargetUnreachable { requested_gain, max_gain } => match max_gain {
                Some(m) => write!(
                    f,
                    "requested {requested_gain:.3}x gain exceeds the model's {m:.3}x ceiling"
                ),
                None => write!(f, "requested {requested_gain:.3}x gain is unreachable"),
            },
            ScalingError::PartialCostCoverage { used, paid_for } => write!(
                f,
                "baseline uses {used} of the {paid_for} resource units its cost pays for; \
                 linearly scaling whole-unit cost is not generous (\u{a7}4.2.1) — cost the \
                 used fraction or first scale within the unit"
            ),
        }
    }
}

impl std::error::Error for ScalingError {}

/// A horizontal-scaling model: how performance and cost multiply when the
/// baseline is replicated by a factor `k > 0`.
///
/// `perf_factor` must be monotonically non-decreasing with
/// `perf_factor(1) = 1`; `cost_factor` defaults to `k` (provisioning
/// twice the hardware costs twice as much — costs that scale *better*
/// than linearly would be a claim needing its own evidence).
pub trait ScalingModel {
    /// Short model name for reports.
    fn name(&self) -> &'static str;

    /// Performance multiplier at replication factor `k`.
    fn perf_factor(&self, k: f64) -> f64;

    /// Cost multiplier at replication factor `k`.
    fn cost_factor(&self, k: f64) -> f64 {
        k
    }

    /// The model's asymptotic maximum performance gain, when finite
    /// (Amdahl: `1/serial`; saturating: the cap).
    fn max_gain(&self) -> Option<f64> {
        None
    }

    /// True when the model is a *generous upper bound* on the baseline's
    /// real behaviour (Principle 6's ideal scaling). Claims in the
    /// proposed system's favor remain valid under a generous bound;
    /// claims in the baseline's favor do not.
    fn is_generous_bound(&self) -> bool {
        false
    }

    /// Scales an operating point by `k`, checking metric scalability and
    /// factor validity.
    fn scale(&self, base: &OperatingPoint, k: f64) -> Result<OperatingPoint, ScalingError> {
        if !(k.is_finite() && k > 0.0) {
            return Err(ScalingError::InvalidFactor { factor: k });
        }
        check_multiplicative(base)?;
        let perf = base.perf().metric().value(base.perf().quantity().scale(self.perf_factor(k)));
        let cost = base.cost().metric().value(base.cost().quantity().scale(self.cost_factor(k)));
        Ok(OperatingPoint::new(perf, cost))
    }

    /// The model's maximum cost multiplier, when finite (a measured curve
    /// cannot promise cost behaviour beyond its last sample).
    fn max_cost_factor(&self) -> Option<f64> {
        None
    }

    /// Finds the replication factor at which the scaled baseline reaches
    /// `gain` times its base performance (bisection; works for any
    /// monotone `perf_factor`).
    fn factor_for_perf_gain(&self, gain: f64) -> Result<f64, ScalingError> {
        if let Some(max) = self.max_gain() {
            if gain > max * (1.0 + 1e-12) {
                return Err(ScalingError::TargetUnreachable {
                    requested_gain: gain,
                    max_gain: Some(max),
                });
            }
        }
        invert_monotone(gain, |k| self.perf_factor(k)).ok_or(ScalingError::TargetUnreachable {
            requested_gain: gain,
            max_gain: self.max_gain(),
        })
    }

    /// Finds the replication factor at which the scaled baseline's cost
    /// reaches `factor` times its base cost.
    fn factor_for_cost_factor(&self, factor: f64) -> Result<f64, ScalingError> {
        if let Some(max) = self.max_cost_factor() {
            if factor > max * (1.0 + 1e-12) {
                return Err(ScalingError::TargetUnreachable {
                    requested_gain: factor,
                    max_gain: Some(max),
                });
            }
        }
        invert_monotone(factor, |k| self.cost_factor(k)).ok_or(ScalingError::TargetUnreachable {
            requested_gain: factor,
            max_gain: self.max_cost_factor(),
        })
    }

    /// Scales `base` so its performance matches `target`'s performance
    /// (the Figure 3 "match A's performance" anchor). Returns the factor
    /// and the scaled point, with the matched axis snapped exactly to the
    /// target so the anchor lies on the target's performance level.
    fn scale_to_match_perf(
        &self,
        base: &OperatingPoint,
        target: &OperatingPoint,
    ) -> Result<(f64, OperatingPoint), ScalingError> {
        base.assert_same_axes(target);
        check_multiplicative(base)?;
        let gain = target
            .perf()
            .quantity()
            .ratio_to(base.perf().quantity())
            .map_err(|_| ScalingError::InvalidFactor { factor: f64::NAN })?;
        if !(gain.is_finite() && gain > 0.0) {
            return Err(ScalingError::InvalidFactor { factor: gain });
        }
        let k = self.factor_for_perf_gain(gain)?;
        let scaled = self.scale(base, k)?;
        // Snap the matched axis: bisection leaves ~1e-12 residue that
        // would otherwise perturb dominance decisions at the anchor.
        let snapped = OperatingPoint::new(target.perf().clone(), scaled.cost().clone());
        Ok((k, snapped))
    }

    /// Scales `base` so its cost matches `target`'s cost (the Figure 3
    /// "match A's cost" anchor), inverting the model's cost curve.
    fn scale_to_match_cost(
        &self,
        base: &OperatingPoint,
        target: &OperatingPoint,
    ) -> Result<(f64, OperatingPoint), ScalingError> {
        base.assert_same_axes(target);
        check_multiplicative(base)?;
        let cf = target
            .cost()
            .quantity()
            .ratio_to(base.cost().quantity())
            .map_err(|_| ScalingError::InvalidFactor { factor: f64::NAN })?;
        if !(cf.is_finite() && cf > 0.0) {
            return Err(ScalingError::InvalidFactor { factor: cf });
        }
        let k = self.factor_for_cost_factor(cf)?;
        let scaled = self.scale(base, k)?;
        let snapped = OperatingPoint::new(scaled.perf().clone(), target.cost().clone());
        Ok((k, snapped))
    }
}

/// Inverts a monotone non-decreasing factor function by bracketing and
/// bisection. Returns `None` when the target cannot be bracketed.
fn invert_monotone(target: f64, f: impl Fn(f64) -> f64) -> Option<f64> {
    if !(target.is_finite() && target > 0.0) {
        return None;
    }
    let (mut lo, mut hi) = (1e-9_f64, 1.0_f64);
    let mut doublings = 0;
    while f(hi) < target {
        hi *= 2.0;
        doublings += 1;
        if doublings > 200 {
            return None;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) <= 1e-12 * hi {
            break;
        }
    }
    Some(hi)
}

fn check_multiplicative(p: &OperatingPoint) -> Result<(), ScalingError> {
    let metric = p.perf().metric();
    if metric.scalability() == Scalability::NonScalable {
        return Err(ScalingError::NonScalableMetric { metric: metric.name() });
    }
    if metric.direction() == Direction::LowerIsBetter {
        return Err(ScalingError::NonMultiplicativeMetric { metric: metric.name() });
    }
    Ok(())
}

/// Principle 6's ideal scalability: performance and cost both scale
/// exactly linearly. A generous upper bound on any real baseline.
///
/// # Examples
///
/// The §4.2.1 anchors (70 Gbps @ 200 W and 100 Gbps @ ~286 W):
///
/// ```
/// use apples_core::{IdealLinear, OperatingPoint, ScalingModel};
/// use apples_metrics::{perf::PerfMetric, CostMetric};
/// use apples_metrics::quantity::{gbps, watts};
///
/// let tp = |g, w| OperatingPoint::new(
///     PerfMetric::throughput_bps().value(gbps(g)),
///     CostMetric::power_draw().value(watts(w)),
/// );
/// let baseline = tp(35.0, 100.0);
/// let proposed = tp(100.0, 200.0);
///
/// let (k, at_cost) = IdealLinear.scale_to_match_cost(&baseline, &proposed).unwrap();
/// assert!((k - 2.0).abs() < 1e-9);
/// assert!((at_cost.perf().quantity().value() / 1e9 - 70.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IdealLinear;

impl ScalingModel for IdealLinear {
    fn name(&self) -> &'static str {
        "ideal linear"
    }

    fn perf_factor(&self, k: f64) -> f64 {
        k
    }

    fn is_generous_bound(&self) -> bool {
        true
    }
}

/// Amdahl's-law scaling: a `serial` fraction of the work does not
/// parallelize, capping the gain at `1/serial`. A *realistic* (not
/// generous) model — useful for quantifying how optimistic ideal scaling
/// is (the `xa-scaling` ablation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Amdahl {
    /// Non-parallelizable fraction of the work, in `[0, 1)`.
    pub serial: f64,
}

impl Amdahl {
    /// Creates an Amdahl model; panics unless `0 <= serial < 1`.
    pub fn new(serial: f64) -> Self {
        assert!((0.0..1.0).contains(&serial), "serial fraction must be in [0,1), got {serial}");
        Amdahl { serial }
    }
}

impl ScalingModel for Amdahl {
    fn name(&self) -> &'static str {
        "Amdahl"
    }

    fn perf_factor(&self, k: f64) -> f64 {
        1.0 / (self.serial + (1.0 - self.serial) / k)
    }

    fn max_gain(&self) -> Option<f64> {
        if self.serial == 0.0 {
            None
        } else {
            Some(1.0 / self.serial)
        }
    }
}

/// Linear scaling up to a hard capacity cap (e.g. a link or PCIe
/// bottleneck), flat beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Saturating {
    /// Maximum performance gain over the base point.
    pub max_factor: f64,
}

impl Saturating {
    /// Creates a saturating model; panics unless `max_factor >= 1`.
    pub fn new(max_factor: f64) -> Self {
        assert!(max_factor >= 1.0, "max factor must be >= 1, got {max_factor}");
        Saturating { max_factor }
    }
}

impl ScalingModel for Saturating {
    fn name(&self) -> &'static str {
        "saturating"
    }

    fn perf_factor(&self, k: f64) -> f64 {
        k.min(self.max_factor)
    }

    fn max_gain(&self) -> Option<f64> {
        Some(self.max_factor)
    }
}

/// A scaling curve interpolated from *measured* replication points
/// (Principle 5: actually provisioning the baseline at higher scale).
///
/// Samples are `(k, perf_factor, cost_factor)` triples relative to the
/// base point at `k = 1`; between samples the curve is piecewise-linear,
/// and it is clamped at the last sample (no extrapolated optimism).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredCurve {
    samples: Vec<(f64, f64, f64)>,
}

impl MeasuredCurve {
    /// Builds a curve from `(k, perf_factor, cost_factor)` samples.
    ///
    /// # Panics
    /// If fewer than one sample is given, samples are not strictly
    /// increasing in `k`, or the first sample is not `(1, 1, 1)`.
    pub fn from_samples(samples: Vec<(f64, f64, f64)>) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        let first = samples[0];
        assert!(
            (first.0 - 1.0).abs() < 1e-9
                && (first.1 - 1.0).abs() < 1e-9
                && (first.2 - 1.0).abs() < 1e-9,
            "first sample must be (1, 1, 1), got {first:?}"
        );
        for w in samples.windows(2) {
            assert!(w[0].0 < w[1].0, "samples must be strictly increasing in k");
            assert!(w[0].1 <= w[1].1, "perf factors must be non-decreasing");
            assert!(w[0].2 <= w[1].2, "cost factors must be non-decreasing");
        }
        MeasuredCurve { samples }
    }

    fn interpolate(&self, k: f64, select: impl Fn(&(f64, f64, f64)) -> f64) -> f64 {
        let first = &self.samples[0];
        if k <= first.0 {
            // Below the measured range: scale down linearly from the base
            // point (k < 1 means a fractional deployment).
            return select(first) * k / first.0;
        }
        for w in self.samples.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if k <= b.0 {
                let t = (k - a.0) / (b.0 - a.0);
                return select(a) + t * (select(b) - select(a));
            }
        }
        // Clamp at the last measured sample: we refuse to invent
        // performance beyond what was measured. (`unwrap_or` is the
        // panic-free spelling; the constructor guarantees samples.)
        select(self.samples.last().unwrap_or(first))
    }
}

impl ScalingModel for MeasuredCurve {
    fn name(&self) -> &'static str {
        "measured"
    }

    fn perf_factor(&self, k: f64) -> f64 {
        self.interpolate(k, |s| s.1)
    }

    fn cost_factor(&self, k: f64) -> f64 {
        self.interpolate(k, |s| s.2)
    }

    fn max_gain(&self) -> Option<f64> {
        self.samples.last().map(|s| s.1)
    }

    fn max_cost_factor(&self) -> Option<f64> {
        self.samples.last().map(|s| s.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::test_support::{lp, tp};
    use apples_metrics::perf::PerfMetric;
    use apples_metrics::quantity::ratio;
    use apples_metrics::CostMetric;

    #[test]
    fn ideal_linear_scales_both_axes() {
        // §4.2.1: 35 Gbps/100 W scaled to match 100 Gbps costs 286 W.
        let b = tp(35.0, 100.0);
        let a = tp(100.0, 200.0);
        let (k, scaled) = IdealLinear.scale_to_match_perf(&b, &a).unwrap();
        assert!((k - 100.0 / 35.0).abs() < 1e-9);
        assert!((scaled.perf().quantity().value() - 100e9).abs() < 1.0);
        assert!((scaled.cost().quantity().value() - 285.714).abs() < 0.001);
    }

    #[test]
    fn ideal_linear_matches_cost_anchor() {
        // §4.2.1: at 200 W the ideally scaled baseline reaches 70 Gbps.
        let b = tp(35.0, 100.0);
        let a = tp(100.0, 200.0);
        let (k, scaled) = IdealLinear.scale_to_match_cost(&b, &a).unwrap();
        assert!((k - 2.0).abs() < 1e-9);
        assert!((scaled.perf().quantity().value() - 70e9).abs() < 1.0);
        assert!((scaled.cost().quantity().value() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn amdahl_caps_gain_at_inverse_serial() {
        let m = Amdahl::new(0.1);
        assert_eq!(m.max_gain(), Some(10.0));
        assert!((m.perf_factor(1.0) - 1.0).abs() < 1e-12);
        assert!(m.perf_factor(1e9) < 10.0);
        let b = tp(10.0, 50.0);
        let a = tp(200.0, 1000.0); // 20x gain > 10x ceiling
        let err = m.scale_to_match_perf(&b, &a).unwrap_err();
        assert!(matches!(err, ScalingError::TargetUnreachable { .. }));
    }

    #[test]
    fn amdahl_solver_inverts_the_factor() {
        let m = Amdahl::new(0.05);
        let k = m.factor_for_perf_gain(4.0).unwrap();
        assert!((m.perf_factor(k) - 4.0).abs() < 1e-6, "k={k}");
    }

    #[test]
    fn amdahl_zero_serial_is_ideal() {
        let m = Amdahl::new(0.0);
        assert_eq!(m.max_gain(), None);
        assert!((m.perf_factor(7.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn saturating_clamps() {
        let m = Saturating::new(3.0);
        assert_eq!(m.perf_factor(2.0), 2.0);
        assert_eq!(m.perf_factor(5.0), 3.0);
        assert!(m.factor_for_perf_gain(3.5).is_err());
    }

    #[test]
    fn measured_curve_interpolates_and_clamps() {
        // §4.2's measured scaling: 1 core = 10 Gbps/50 W, 2 cores =
        // 18 Gbps/80 W (perf factor 1.8, cost factor 1.6).
        let c = MeasuredCurve::from_samples(vec![(1.0, 1.0, 1.0), (2.0, 1.8, 1.6)]);
        assert!((c.perf_factor(1.5) - 1.4).abs() < 1e-9);
        assert!((c.cost_factor(1.5) - 1.3).abs() < 1e-9);
        // Clamped beyond the last measurement.
        assert!((c.perf_factor(4.0) - 1.8).abs() < 1e-9);
        assert_eq!(c.max_gain(), Some(1.8));
    }

    #[test]
    fn measured_curve_reproduces_section_42() {
        let b = tp(10.0, 50.0);
        let c = MeasuredCurve::from_samples(vec![(1.0, 1.0, 1.0), (2.0, 1.8, 1.6)]);
        let scaled = c.scale(&b, 2.0).unwrap();
        assert!((scaled.perf().quantity().value() - 18e9).abs() < 1.0);
        assert!((scaled.cost().quantity().value() - 80.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "first sample")]
    fn measured_curve_requires_unit_base() {
        let _ = MeasuredCurve::from_samples(vec![(2.0, 1.8, 1.6)]);
    }

    #[test]
    fn scaling_rejects_latency() {
        // §4.3 / pitfall 3: latency does not scale.
        let b = lp(10.0, 100.0);
        let err = IdealLinear.scale(&b, 2.0).unwrap_err();
        assert!(matches!(err, ScalingError::NonScalableMetric { .. }));
    }

    #[test]
    fn scaling_rejects_loss_rate_as_non_multiplicative() {
        let p = OperatingPoint::new(
            PerfMetric::loss_rate().value(ratio(0.01)),
            CostMetric::power_draw().value(apples_metrics::quantity::watts(50.0)),
        );
        let err = IdealLinear.scale(&p, 2.0).unwrap_err();
        assert!(matches!(err, ScalingError::NonMultiplicativeMetric { .. }));
    }

    #[test]
    fn invalid_factors_rejected() {
        let b = tp(10.0, 50.0);
        for k in [0.0, -1.0, f64::INFINITY] {
            assert!(matches!(IdealLinear.scale(&b, k), Err(ScalingError::InvalidFactor { .. })));
        }
    }

    #[test]
    fn downscaling_is_permitted_for_ideal() {
        // §4.3 mentions downscaling targets; ideal linear handles k < 1.
        let b = tp(10.0, 50.0);
        let scaled = IdealLinear.scale(&b, 0.5).unwrap();
        assert!((scaled.perf().quantity().value() - 5e9).abs() < 1.0);
        assert!((scaled.cost().quantity().value() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn cost_coverage_guard_fires_for_partial_hosts() {
        assert!(CostCoverage::FullSystem.check().is_ok());
        assert!(CostCoverage::PartialHost { used: 8.0, paid_for: 8.0 }.check().is_ok());
        let err = CostCoverage::PartialHost { used: 1.0, paid_for: 8.0 }.check().unwrap_err();
        assert!(matches!(err, ScalingError::PartialCostCoverage { .. }));
        assert!(err.to_string().contains("not generous"));
    }

    #[test]
    fn only_ideal_is_a_generous_bound() {
        assert!(IdealLinear.is_generous_bound());
        assert!(!Amdahl::new(0.1).is_generous_bound());
        assert!(!Saturating::new(2.0).is_generous_bound());
        assert!(!MeasuredCurve::from_samples(vec![(1.0, 1.0, 1.0)]).is_generous_bound());
    }

    #[test]
    fn error_messages_are_actionable() {
        let e = ScalingError::NonScalableMetric { metric: "latency" };
        assert!(e.to_string().contains("principle 7"));
        let e = ScalingError::TargetUnreachable { requested_gain: 20.0, max_gain: Some(10.0) };
        assert!(e.to_string().contains("ceiling"));
    }
}
