//! Cross-crate integration: simulate heterogeneous deployments, feed the
//! measurements into the methodology engine, and check the conclusions.

use apples::prelude::*;
use apples_bench::scenarios::{
    baseline_host, measure, mtu_workload, optimized_host, saturating_workload, smartnic_system,
    switch_system,
};

#[test]
fn simulated_smartnic_comparison_reaches_a_licensed_claim() {
    let wl = saturating_workload(21);
    let base = measure(&baseline_host(1), &wl);
    let nic = measure(&smartnic_system(), &wl);

    // The substrate produces the §4.2 shape: more perf, more watts.
    assert!(nic.throughput_bps > base.throughput_bps);
    assert!(nic.watts > base.watts);

    // Measured curve from real multi-core runs.
    let samples: Vec<(f64, f64, f64)> = [1u32, 2, 4]
        .iter()
        .map(|&c| {
            let m = measure(&baseline_host(c), &wl);
            (f64::from(c), m.throughput_bps / base.throughput_bps, m.watts / base.watts)
        })
        .collect();
    let curve = MeasuredCurve::from_samples(samples);

    let result =
        Evaluation::new(nic.as_system(), base.as_system()).with_baseline_scaling(&curve).run();
    assert_eq!(result.relation, Relation::Incomparable);
    assert!(result.verdict.favors_proposed(), "verdict: {}", result.verdict);
    assert!(result.violations.is_empty(), "power draw satisfies P1-P3");
}

#[test]
fn simulated_switch_comparison_under_ideal_scaling() {
    let wl = saturating_workload(22);
    let base = measure(&baseline_host(8), &wl);
    let sw = measure(&switch_system(8), &wl);
    let result =
        Evaluation::new(sw.as_system(), base.as_system()).with_baseline_scaling(&IdealLinear).run();
    match &result.verdict {
        Verdict::Scaled { generous, .. } => assert!(*generous),
        other => panic!("expected a scaled verdict, got {other}"),
    }
}

#[test]
fn low_load_verdict_flips_to_the_baseline() {
    // At 2 Gbps offered, the switch's idle floor is dead weight and the
    // methodology says so.
    let wl = mtu_workload(2.0, 23);
    let base = measure(&baseline_host(8), &wl);
    let sw = measure(&switch_system(8), &wl);
    let result =
        Evaluation::new(sw.as_system(), base.as_system()).with_baseline_scaling(&IdealLinear).run();
    // Both systems carry the full (light) load, so the regime is
    // same-performance and the claim is unidimensional: the switch
    // design just costs ~3x more watts. Either way, no claim for the
    // proposed system.
    match &result.verdict {
        Verdict::SameRegime { regime: Regime::SamePerf, .. } | Verdict::BaselineDominates => {}
        other => panic!("expected the baseline to win at low load, got {other}"),
    }
    assert!(!result.verdict.favors_proposed());
}

#[test]
fn same_hardware_software_optimization_is_a_regime_claim() {
    let wl = saturating_workload(24);
    let base = measure(&baseline_host(1), &wl);
    let opt = measure(&optimized_host(1), &wl);
    let result = Evaluation::new(opt.as_system(), base.as_system())
        .with_tolerance(Tolerance::new(0.05))
        .run();
    match result.verdict {
        Verdict::SameRegime { regime: Regime::SameCost, .. } => {}
        other => panic!("expected a same-cost regime claim, got {other}"),
    }
}

#[test]
fn measurements_feed_every_metric_axis() {
    let wl = mtu_workload(3.0, 25);
    let m = measure(&baseline_host(2), &wl);
    // Throughput, pps, latency, p99, JFI all come from one run.
    assert!(m.throughput_power_point().perf().quantity().value() > 0.0);
    assert!(m.pps_power_point().perf().quantity().value() > 0.0);
    assert!(m.latency_power_point().perf().quantity().value() > 0.0);
    assert!(m.p99_power_point().perf().quantity().value() > 0.0);
    let j = m.jain_power_point().expect("traffic flowed");
    let jv = j.perf().quantity().value();
    assert!(jv > 0.0 && jv <= 1.0);
}

#[test]
fn latency_axes_refuse_scaling_end_to_end() {
    let wl = mtu_workload(1.0, 26);
    let base = measure(&baseline_host(1), &wl);
    let nic = measure(&smartnic_system(), &wl);
    let result = Evaluation::new(nic.as_latency_system(), base.as_latency_system())
        .with_baseline_scaling(&IdealLinear)
        .run();
    // Whatever the relation, the verdict must never be a Scaled one:
    // latency does not scale (Principle 7).
    assert!(
        !matches!(result.verdict, Verdict::Scaled { .. }),
        "latency must not be scaled: {}",
        result.verdict
    );
}

#[test]
fn identical_deployments_yield_identical_costs() {
    // Principle 1 on the substrate: same hardware, same workload ->
    // bit-identical measurement, hence identical context-independent
    // costs, regardless of "who" runs it (here: two separate runs).
    let wl = mtu_workload(5.0, 27);
    let a = measure(&baseline_host(2), &wl);
    let b = measure(&baseline_host(2), &wl);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn report_renders_for_simulated_systems() {
    let wl = saturating_workload(28);
    let base = measure(&baseline_host(1), &wl);
    let nic = measure(&smartnic_system(), &wl);
    let result = Evaluation::new(nic.as_system(), base.as_system())
        .with_baseline_scaling(&IdealLinear)
        .run();
    let text = render_text(&result);
    assert!(text.contains("fw-smartnic"));
    assert!(text.contains("verdict:"));
    assert!(text.contains("power draw"));
}
