//! The end-to-end evaluation pipeline: metric validation, regime
//! detection, dominance, scaling, and verdict.
//!
//! [`Evaluation`] is the crate's main entry point. It wires the paper's
//! principles together in order:
//!
//! 1. validate the cost metric against P1–P3 for the systems at hand;
//! 2. if the systems share a regime, emit the unidimensional claim (P4);
//! 3. if one Pareto-dominates, emit that;
//! 4. otherwise, if a scaling model was supplied and the metric scales,
//!    scale the *baseline* (never the proposed system — P6 pitfall 1)
//!    into the comparison region and compare at the anchors (P5/P6);
//! 5. otherwise apply the non-scalable rules (P7).

use crate::dominance::{relate, Relation};
use crate::point::System;
use crate::regime::{detect_regime, unidimensional_claim, Regime, Tolerance};
use crate::scaling::{CostCoverage, ScalingError, ScalingModel};
use crate::verdict::{AnchorKind, ScaledAnchor, ScaledOutcome, Verdict};
use apples_metrics::cost::{validate_cost_metric, PrincipleViolation};

/// A configured comparison of a proposed system against a baseline.
///
/// # Examples
///
/// The §4.2.1 switch example end to end:
///
/// ```
/// use apples_core::{Evaluation, IdealLinear, OperatingPoint, System};
/// use apples_metrics::cost::DeviceClass;
/// use apples_metrics::{perf::PerfMetric, CostMetric};
/// use apples_metrics::quantity::{gbps, watts};
///
/// let tp = |g, w| OperatingPoint::new(
///     PerfMetric::throughput_bps().value(gbps(g)),
///     CostMetric::power_draw().value(watts(w)),
/// );
/// let result = Evaluation::new(
///     System::new("fw+switch", vec![DeviceClass::Cpu, DeviceClass::ProgrammableSwitch], tp(100.0, 200.0)),
///     System::new("fw", vec![DeviceClass::Cpu, DeviceClass::Nic], tp(35.0, 100.0)),
/// )
/// .with_baseline_scaling(&IdealLinear)
/// .run();
///
/// assert!(result.violations.is_empty());          // power passes P1–P3
/// assert!(result.verdict.favors_proposed());       // A ≻ ideally scaled B
/// ```
pub struct Evaluation<'a> {
    proposed: System,
    baseline: System,
    tolerance: Tolerance,
    scaling: Option<&'a dyn ScalingModel>,
    baseline_coverage: CostCoverage,
}

/// Everything an evaluation produced, ready for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationResult {
    /// The proposed system as supplied.
    pub proposed: System,
    /// The baseline as supplied.
    pub baseline: System,
    /// P1–P3 violations of the chosen cost metric for these systems.
    /// Non-empty violations do not abort the evaluation — the paper asks
    /// for the discussion, not a refusal — but they are always reported.
    pub violations: Vec<PrincipleViolation>,
    /// The detected operating regime.
    pub regime: Regime,
    /// The raw Pareto relation of proposed to baseline.
    pub relation: Relation,
    /// The methodology's verdict.
    pub verdict: Verdict,
}

impl<'a> Evaluation<'a> {
    /// Starts an evaluation of `proposed` against `baseline`.
    ///
    /// # Panics
    /// If the two systems' operating points use different metrics.
    pub fn new(proposed: System, baseline: System) -> Self {
        proposed.point().assert_same_axes(baseline.point());
        Evaluation {
            proposed,
            baseline,
            tolerance: Tolerance::default(),
            scaling: None,
            baseline_coverage: CostCoverage::FullSystem,
        }
    }

    /// Sets the regime-equality tolerance (default 1%).
    pub fn with_tolerance(mut self, tol: Tolerance) -> Self {
        self.tolerance = tol;
        self
    }

    /// Supplies a scaling model for the *baseline* (Principles 5/6).
    ///
    /// By construction there is no way to scale the proposed system —
    /// that is P6's first pitfall, prevented by the API shape.
    pub fn with_baseline_scaling(mut self, model: &'a dyn ScalingModel) -> Self {
        self.scaling = Some(model);
        self
    }

    /// Declares how much of the baseline's host its reported cost covers
    /// (default: the full system). Scaling a partially-used host at
    /// whole-host cost trips the §4.2.1 guard.
    pub fn with_baseline_cost_coverage(mut self, coverage: CostCoverage) -> Self {
        self.baseline_coverage = coverage;
        self
    }

    /// Runs the pipeline.
    pub fn run(self) -> EvaluationResult {
        let p = self.proposed.point().clone();
        let b = self.baseline.point().clone();

        // P1–P3: validate the cost metric for both systems' inventories.
        let violations = validate_cost_metric(
            p.cost().metric(),
            &[
                (self.proposed.name(), self.proposed.devices()),
                (self.baseline.name(), self.baseline.devices()),
            ],
        );

        let regime = detect_regime(&p, &b, self.tolerance);
        let relation = relate(&p, &b);

        // P4: same regime -> unidimensional claim.
        if regime != Regime::Different {
            #[expect(
                clippy::expect_used,
                reason = "invariant: unidimensional_claim returns Some whenever detect_regime found a shared regime, checked on the line above"
            )]
            let claim = unidimensional_claim(&p, &b, self.tolerance)
                .expect("same-regime points always yield a claim");
            return self.result(
                violations,
                regime,
                relation,
                Verdict::SameRegime { regime, claim },
            );
        }

        // Direct dominance needs no scaling.
        match relation {
            Relation::Dominates => {
                return self.result(violations, regime, relation, Verdict::ProposedDominates)
            }
            Relation::DominatedBy => {
                return self.result(violations, regime, relation, Verdict::BaselineDominates)
            }
            Relation::Equivalent | Relation::Incomparable => {}
        }

        // Incomparable: try scaling the baseline into the region.
        let verdict = match self.scaling {
            Some(model) => match self.scaled_verdict(model) {
                Ok(v) => v,
                Err(e) => Verdict::Incomparable { reason: e.to_string() },
            },
            None => Verdict::Incomparable {
                reason: "no scaling model supplied for the baseline (principle 7 applies)"
                    .to_owned(),
            },
        };
        self.result(violations, regime, relation, verdict)
    }

    fn scaled_verdict(&self, model: &dyn ScalingModel) -> Result<Verdict, ScalingError> {
        self.baseline_coverage.check()?;
        let p = self.proposed.point();
        let b = self.baseline.point();

        // Each anchor may independently be unreachable (a measured curve
        // ends, an Amdahl ceiling bites). Unreachable anchors become
        // notes; the verdict is drawn from the anchors that exist. Both
        // unreachable means the baseline cannot be brought into the
        // region at all.
        let mut anchors = Vec::new();
        let mut notes = Vec::new();
        match model.scale_to_match_perf(b, p) {
            Ok((k, at_perf)) => anchors.push(ScaledAnchor {
                kind: AnchorKind::MatchPerf,
                factor: k,
                relation: relate(p, &at_perf),
                scaled_baseline: at_perf,
            }),
            Err(e) => notes.push(format!("equal-performance anchor unreachable: {e}")),
        }
        match model.scale_to_match_cost(b, p) {
            Ok((k, at_cost)) => anchors.push(ScaledAnchor {
                kind: AnchorKind::MatchCost,
                factor: k,
                relation: relate(p, &at_cost),
                scaled_baseline: at_cost,
            }),
            Err(e) => notes.push(format!("equal-cost anchor unreachable: {e}")),
        }
        if anchors.is_empty() {
            return Ok(Verdict::Incomparable {
                reason: format!(
                    "the baseline cannot be scaled into the comparison region under the \
                     {} model ({})",
                    model.name(),
                    notes.join("; ")
                ),
            });
        }

        let proposed_ok = |r: Relation| matches!(r, Relation::Dominates | Relation::Equivalent);
        let baseline_ok = |r: Relation| matches!(r, Relation::DominatedBy | Relation::Equivalent);
        let all_proposed = anchors.iter().all(|a| proposed_ok(a.relation));
        let any_proposed_strict = anchors.iter().any(|a| a.relation == Relation::Dominates);
        let all_baseline = anchors.iter().all(|a| baseline_ok(a.relation));
        let any_baseline_strict = anchors.iter().any(|a| a.relation == Relation::DominatedBy);

        let outcome = if all_proposed && any_proposed_strict {
            ScaledOutcome::ProposedPrevails
        } else if all_baseline && any_baseline_strict {
            ScaledOutcome::BaselinePrevails { objective: !model.is_generous_bound() }
        } else if all_proposed && all_baseline {
            // Every anchor equivalent: the scaled baseline coincides with
            // the proposed point; treat as a baseline tie (no claim for
            // the proposed system under a generous bound).
            ScaledOutcome::BaselinePrevails { objective: false }
        } else {
            ScaledOutcome::Mixed
        };

        Ok(Verdict::Scaled {
            model: model.name(),
            generous: model.is_generous_bound(),
            anchors,
            notes,
            outcome,
        })
    }

    fn result(
        self,
        violations: Vec<PrincipleViolation>,
        regime: Regime,
        relation: Relation,
        verdict: Verdict,
    ) -> EvaluationResult {
        EvaluationResult {
            proposed: self.proposed,
            baseline: self.baseline,
            violations,
            regime,
            relation,
            verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::test_support::{lp, tp};
    use crate::regime::UnidimensionalClaim;
    use crate::scaling::{Amdahl, IdealLinear, MeasuredCurve};
    use apples_metrics::cost::DeviceClass;

    fn sys(name: &str, devices: &[DeviceClass], point: crate::OperatingPoint) -> System {
        System::new(name, devices.to_vec(), point)
    }

    const HOST: &[DeviceClass] = &[DeviceClass::Cpu, DeviceClass::Nic];
    const OFFLOAD: &[DeviceClass] = &[DeviceClass::Cpu, DeviceClass::SmartNic];

    #[test]
    fn same_cost_regime_yields_unidimensional_claim() {
        let r =
            Evaluation::new(sys("opt", HOST, tp(15.0, 50.0)), sys("base", HOST, tp(10.0, 50.0)))
                .run();
        assert_eq!(r.regime, Regime::SameCost);
        match r.verdict {
            Verdict::SameRegime {
                claim: UnidimensionalClaim::PerfImprovement { factor }, ..
            } => {
                assert!((factor - 1.5).abs() < 1e-9)
            }
            other => panic!("unexpected verdict {other:?}"),
        }
        assert!(r.verdict.favors_proposed());
    }

    #[test]
    fn dominating_proposal_wins_without_scaling() {
        let r = Evaluation::new(
            sys("fast+cheap", OFFLOAD, tp(30.0, 40.0)),
            sys("base", HOST, tp(10.0, 50.0)),
        )
        .run();
        assert_eq!(r.verdict, Verdict::ProposedDominates);
    }

    #[test]
    fn dominated_proposal_is_reported_honestly() {
        let r = Evaluation::new(
            sys("worse", OFFLOAD, tp(8.0, 90.0)),
            sys("base", HOST, tp(10.0, 50.0)),
        )
        .run();
        assert_eq!(r.verdict, Verdict::BaselineDominates);
    }

    #[test]
    fn section_42_smartnic_example_with_measured_scaling() {
        // Proposed (SmartNIC): 20 Gbps / 70 W. Baseline: 10 Gbps / 50 W
        // at one core, 18 Gbps / 80 W at two. The paper concludes the
        // proposed system is better at this performance-cost target.
        let curve = MeasuredCurve::from_samples(vec![(1.0, 1.0, 1.0), (2.0, 1.8, 1.6)]);
        let r = Evaluation::new(
            sys("firewall+smartnic", OFFLOAD, tp(20.0, 70.0)),
            sys("firewall", HOST, tp(10.0, 50.0)),
        )
        .with_baseline_scaling(&curve)
        .run();
        assert_eq!(r.relation, Relation::Incomparable);
        match &r.verdict {
            Verdict::Scaled { model, generous, outcome, anchors, notes } => {
                assert_eq!(*model, "measured");
                assert!(!generous);
                assert_eq!(*outcome, ScaledOutcome::ProposedPrevails);
                // The measured curve tops out at 18 Gbps (< 20 Gbps), so
                // the equal-performance anchor is honestly unreachable…
                assert!(anchors.iter().all(|a| a.kind != AnchorKind::MatchPerf));
                assert!(notes.iter().any(|n| n.contains("equal-performance")), "{notes:?}");
                // …and the comparison closes at the equal-cost anchor:
                // at 70 W the measured baseline reaches ~15.3 Gbps, which
                // the 20 Gbps proposed system dominates.
                let at_cost = anchors.iter().find(|a| a.kind == AnchorKind::MatchCost).unwrap();
                let scaled_gbps = at_cost.scaled_baseline.perf().quantity().value() / 1e9;
                assert!((scaled_gbps - 15.333).abs() < 0.01, "got {scaled_gbps}");
                assert_eq!(at_cost.relation, Relation::Dominates);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
        assert!(r.verdict.favors_proposed());
    }

    #[test]
    fn section_42_conclusion_with_the_two_core_measurement() {
        // Alternatively, treat the measured 2-core deployment
        // (18 Gbps / 80 W) as a system in its own right: it is in the
        // proposed system's comparison region and dominated by it —
        // "an objective claim that the proposed system is better at this
        // performance-cost target."
        let r = Evaluation::new(
            sys("firewall+smartnic", OFFLOAD, tp(20.0, 70.0)),
            sys("firewall@2cores", HOST, tp(18.0, 80.0)),
        )
        .run();
        assert_eq!(r.verdict, Verdict::ProposedDominates);
    }

    #[test]
    fn section_421_switch_example_with_ideal_scaling() {
        // Proposed (switch): 100 Gbps / 200 W; baseline 35 Gbps / 100 W.
        // Ideal scaling brings the baseline to 70 Gbps @ 200 W or
        // 100 Gbps @ 286 W — the proposed system prevails at both.
        let r = Evaluation::new(
            sys(
                "fw+switch",
                &[DeviceClass::Cpu, DeviceClass::ProgrammableSwitch],
                tp(100.0, 200.0),
            ),
            sys("fw", HOST, tp(35.0, 100.0)),
        )
        .with_baseline_scaling(&IdealLinear)
        .run();
        match &r.verdict {
            Verdict::Scaled { generous, outcome, anchors, .. } => {
                assert!(*generous);
                assert_eq!(*outcome, ScaledOutcome::ProposedPrevails);
                let at_cost = anchors.iter().find(|a| a.kind == AnchorKind::MatchCost).unwrap();
                assert!((at_cost.scaled_baseline.perf().quantity().value() - 70e9).abs() < 1e3);
                let at_perf = anchors.iter().find(|a| a.kind == AnchorKind::MatchPerf).unwrap();
                assert!((at_perf.scaled_baseline.cost().quantity().value() - 285.714).abs() < 0.01);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn generously_scaled_baseline_win_blocks_claims_both_ways() {
        // Proposed is power-hungry: 40 Gbps / 300 W vs baseline
        // 35 Gbps / 100 W. Ideal scaling gives the baseline 105 Gbps at
        // 300 W — it prevails, but only generously, so no objective claim.
        let r = Evaluation::new(
            sys("hungry", OFFLOAD, tp(40.0, 300.0)),
            sys("base", HOST, tp(35.0, 100.0)),
        )
        .with_baseline_scaling(&IdealLinear)
        .run();
        match &r.verdict {
            Verdict::Scaled { outcome, .. } => {
                assert_eq!(*outcome, ScaledOutcome::BaselinePrevails { objective: false });
            }
            other => panic!("unexpected verdict {other:?}"),
        }
        assert!(r.verdict.is_inconclusive());
    }

    #[test]
    fn measured_baseline_win_is_objective() {
        let curve = MeasuredCurve::from_samples(vec![(1.0, 1.0, 1.0), (4.0, 3.8, 3.9)]);
        let r = Evaluation::new(
            sys("hungry", OFFLOAD, tp(40.0, 300.0)),
            sys("base", HOST, tp(35.0, 100.0)),
        )
        .with_baseline_scaling(&curve)
        .run();
        match &r.verdict {
            Verdict::Scaled { outcome, .. } => {
                assert_eq!(*outcome, ScaledOutcome::BaselinePrevails { objective: true });
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn amdahl_ceiling_is_noted_and_comparison_closes_at_equal_cost() {
        // The baseline can never reach the proposed 100 Gbps through an
        // Amdahl model with a 50% serial fraction (2x ceiling), but the
        // equal-cost anchor still exists: at 200 W (k = 2) it reaches
        // 35 * 1.333 = 46.7 Gbps and the proposed system dominates.
        let m = Amdahl::new(0.5);
        let r = Evaluation::new(
            sys("switch", &[DeviceClass::ProgrammableSwitch], tp(100.0, 200.0)),
            sys("base", HOST, tp(35.0, 100.0)),
        )
        .with_baseline_scaling(&m)
        .run();
        match &r.verdict {
            Verdict::Scaled { anchors, notes, outcome, .. } => {
                assert!(notes.iter().any(|n| n.contains("ceiling")), "{notes:?}");
                assert_eq!(anchors.len(), 1);
                assert_eq!(anchors[0].kind, AnchorKind::MatchCost);
                let g = anchors[0].scaled_baseline.perf().quantity().value() / 1e9;
                assert!((g - 46.6667).abs() < 0.01, "got {g}");
                assert_eq!(*outcome, ScaledOutcome::ProposedPrevails);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn fully_unreachable_scaling_is_incomparable() {
        // A measured curve that ends below the proposed system on *both*
        // axes: neither anchor is reachable, so no claim can be made.
        let curve = MeasuredCurve::from_samples(vec![(1.0, 1.0, 1.0), (1.2, 1.1, 1.1)]);
        let r = Evaluation::new(
            sys("switch", &[DeviceClass::ProgrammableSwitch], tp(100.0, 200.0)),
            sys("base", HOST, tp(35.0, 100.0)),
        )
        .with_baseline_scaling(&curve)
        .run();
        match &r.verdict {
            Verdict::Incomparable { reason } => {
                assert!(reason.contains("cannot be scaled into the comparison region"), "{reason}");
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn partial_cost_coverage_blocks_scaling() {
        let r = Evaluation::new(
            sys("switch", &[DeviceClass::ProgrammableSwitch], tp(100.0, 200.0)),
            sys("base-1of8", HOST, tp(35.0, 100.0)),
        )
        .with_baseline_scaling(&IdealLinear)
        .with_baseline_cost_coverage(CostCoverage::PartialHost { used: 1.0, paid_for: 8.0 })
        .run();
        match &r.verdict {
            Verdict::Incomparable { reason } => {
                assert!(reason.contains("not generous"), "{reason}")
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn non_scalable_latency_falls_back_to_principle_7() {
        // §4.3 incomparable latency case, even with a model supplied.
        let r = Evaluation::new(
            sys("lowlat", OFFLOAD, lp(5.0, 200.0)),
            sys("base", HOST, lp(8.0, 100.0)),
        )
        .with_baseline_scaling(&IdealLinear)
        .run();
        match &r.verdict {
            Verdict::Incomparable { reason } => {
                assert!(reason.contains("does not improve under horizontal scaling"), "{reason}")
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn no_model_means_principle_7() {
        let r = Evaluation::new(sys("a", OFFLOAD, tp(20.0, 70.0)), sys("b", HOST, tp(10.0, 50.0)))
            .run();
        match &r.verdict {
            Verdict::Incomparable { reason } => assert!(reason.contains("principle 7")),
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn cost_metric_violations_are_surfaced() {
        use apples_metrics::cost::CostMetric;
        use apples_metrics::perf::PerfMetric;
        use apples_metrics::quantity::{cores, gbps};
        // Compare a CPU system with an FPGA system under "CPU cores":
        // coverage violations must be attached to the result.
        let p = crate::OperatingPoint::new(
            PerfMetric::throughput_bps().value(gbps(20.0)),
            CostMetric::cpu_cores().value(cores(2.0)),
        );
        let b = crate::OperatingPoint::new(
            PerfMetric::throughput_bps().value(gbps(10.0)),
            CostMetric::cpu_cores().value(cores(4.0)),
        );
        let r = Evaluation::new(
            sys("fpga-accel", &[DeviceClass::Cpu, DeviceClass::Fpga], p),
            sys("cpu-only", HOST, b),
        )
        .run();
        assert!(
            r.violations.iter().any(|v| matches!(
                v,
                PrincipleViolation::IncompleteCoverage { device: DeviceClass::Fpga, .. }
            )),
            "expected an FPGA coverage violation, got {:?}",
            r.violations
        );
        // The comparison still runs (the proposal dominates on these axes),
        // but the report will carry the violation.
        assert_eq!(r.verdict, Verdict::ProposedDominates);
    }
}
