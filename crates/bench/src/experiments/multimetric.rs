//! Extension experiment: the same comparison under several cost metrics
//! at once (§3.4 "any cost metric that meets our three requirements can
//! be substituted"), including one that *fails* the requirements so the
//! diagnostics fire.

use crate::report::ExperimentReport;
use crate::scenarios::{baseline_host, measure, saturating_workload, smartnic_system};
use apples_core::multi::{evaluate_multi, MultiPoint};
use apples_core::regime::Tolerance;
use apples_core::report::Csv;
use apples_metrics::cost::{validate_cost_metric, CostMetric};
use apples_metrics::perf::PerfMetric;
use apples_metrics::quantity::{bps, rack_units, watts, watts_to_btu_per_hour};

/// Runs the experiment.
pub fn run() -> ExperimentReport {
    let mut r = ExperimentReport::new(
        "multimetric",
        "extension: one comparison under power, heat, and rack space simultaneously",
    );
    r.paper_line("\u{a7}3.4: power is the running example, but any metric satisfying principles 1-3 substitutes; report them side by side");

    let wl = saturating_workload(31);
    let (base_d, nic_d) = (baseline_host(1), smartnic_system());
    let base = measure(&base_d, &wl);
    let nic = measure(&nic_d, &wl);

    let perf = PerfMetric::throughput_bps();
    let mk = |m: &apples_simnet::system::Measurement, rack: f64| {
        MultiPoint::new(
            perf.value(bps(m.throughput_bps)),
            vec![
                CostMetric::power_draw().value(watts(m.watts)),
                CostMetric::heat_dissipation()
                    .value(watts_to_btu_per_hour(watts(m.watts)).expect("watts")),
                CostMetric::rack_space().value(rack_units(rack)),
            ],
        )
    };
    let p = mk(&nic, nic_d.rack_units());
    let b = mk(&base, base_d.rack_units());

    let result = evaluate_multi(
        &nic.name,
        &nic.device_classes,
        &p,
        &base.name,
        &base.device_classes,
        &b,
        Tolerance::new(0.02),
    );

    r.measured_line(format!("joint vector relation: proposed {} baseline", result.joint_relation));
    let mut csv = Csv::new(["metric", "proposed", "baseline", "verdict"]);
    for axis in &result.axes {
        let pv = axis.result.proposed.point().cost().quantity();
        let bv = axis.result.baseline.point().cost().quantity();
        r.measured_line(format!(
            "under {:<16}: proposed {} vs baseline {} -> {}",
            axis.metric, pv, bv, axis.result.verdict
        ));
        csv.row([
            axis.metric.to_owned(),
            pv.to_string(),
            bv.to_string(),
            axis.result.verdict.to_string(),
        ]);
    }
    let divergent = result.divergent_axes();
    if divergent.is_empty() {
        r.measured_line("all axes agree; the claim is metric-robust".to_owned());
    } else {
        r.measured_line(format!(
            "metric-sensitive axes: {} — report all, claim none unqualified",
            divergent.join(", ")
        ));
    }

    // The §3.3 counterexample: "number of CPU cores" cannot cover the
    // SmartNIC system; the validator must say so.
    let violations = validate_cost_metric(
        &CostMetric::cpu_cores(),
        &[(&nic.name, &nic.device_classes), (&base.name, &base.device_classes)],
    );
    assert!(!violations.is_empty());
    r.measured_line("attempting the comparison under 'number of CPU cores' instead:".to_owned());
    for v in &violations {
        r.measured_line(format!("  {v}"));
    }
    r.table("multimetric-axes", csv);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_every_axis_and_the_core_metric_violation() {
        let text = run().render();
        assert!(text.contains("power draw"), "{text}");
        assert!(text.contains("heat dissipation"), "{text}");
        assert!(text.contains("rack space"), "{text}");
        assert!(text.contains("principle 3 violation"), "{text}");
    }

    #[test]
    fn rack_axis_is_same_cost_regime() {
        // Same 1 RU on both sides: the rack-space axis collapses to a
        // unidimensional performance claim.
        let r = run();
        let rack_line = r.measured.iter().find(|l| l.contains("under rack space")).unwrap();
        assert!(rack_line.contains("same cost regime"), "{rack_line}");
    }
}
