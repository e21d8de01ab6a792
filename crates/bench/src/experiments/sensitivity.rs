//! Extension experiment: how robust are the verdicts to the synthetic
//! device constants?
//!
//! A simulation-backed reproduction owes its readers this question: the
//! SmartNIC's power envelope is a synthetic constant, so we sweep it
//! (×0.5 … ×4) and re-run the §4.2 comparison at every point. The
//! output is the *break-even envelope*: the verdict holds until the
//! SmartNIC burns so much power that even the generous comparison flips
//! — and readers can check their own hardware against that line rather
//! than trusting our constant.

use crate::pool::Pool;
use crate::report::ExperimentReport;
use crate::scenarios::{
    baseline_host, firewall_chain, measure, saturating_workload, stateful_tail_chain, to_gbps,
    RUN_NS, WARMUP_NS,
};
use apples_core::report::Csv;
use apples_core::scaling::IdealLinear;
use apples_core::Evaluation;
use apples_power::devices::DeviceSpec;
use apples_simnet::engine::StageConfig;
use apples_simnet::service::NfService;
use apples_simnet::system::{DeploymentBuilder, UtilSource};

/// The §4.2 SmartNIC system with its NIC's power envelope scaled.
fn smartnic_scaled(power_factor: f64) -> apples_simnet::system::Deployment {
    DeploymentBuilder::new(format!("smartnic-x{power_factor}"))
        .stage(|| {
            StageConfig::new(
                "smartnic-cores",
                4,
                2048,
                Box::new(NfService::smartnic_core(firewall_chain())),
            )
        })
        .stage(|| {
            StageConfig::new(
                "host-cores",
                1,
                1024,
                Box::new(NfService::host_core(stateful_tail_chain())),
            )
        })
        .power(DeviceSpec::host_chassis(), 1, UtilSource::Fixed(1.0))
        .power(DeviceSpec::xeon_core(), 1, UtilSource::Stage(1))
        .power(DeviceSpec::smartnic_100g().with_power_scaled(power_factor), 1, UtilSource::Stage(0))
        .build()
}

/// Runs the experiment, fanning the sweep out on `pool`.
pub fn run(pool: Pool) -> ExperimentReport {
    let mut r = ExperimentReport::new(
        "sensitivity",
        "extension: verdict robustness to the synthetic SmartNIC power constant",
    );
    r.paper_line("(simulation-substitution hygiene: report the break-even constants, not just the verdict at our pick)");

    let wl = saturating_workload(91);
    let base = measure(&baseline_host(1), &wl);
    r.measured_line(format!(
        "baseline: {:.2} Gbps / {:.1} W; SmartNIC envelope swept below (x1.0 = the catalog's 25-40 W)",
        to_gbps(base.throughput_bps),
        base.watts
    ));

    let mut csv = Csv::new(["power_factor", "nic_gbps", "nic_watts", "favors_proposed"]);
    let mut break_even = None;
    // The sweep points are independent simulations: fan them out on the
    // pool, then fold the break-even detection serially in sweep order.
    let sweep = pool.map(vec![0.5, 1.0, 1.5, 2.0, 3.0, 4.0], |factor| {
        let nic = smartnic_scaled(factor).run(&wl, RUN_NS, WARMUP_NS);
        let verdict = Evaluation::new(nic.as_system(), base.as_system())
            .with_baseline_scaling(&IdealLinear)
            .run()
            .verdict;
        (factor, nic, verdict)
    });
    for (factor, nic, verdict) in sweep {
        let favors = verdict.favors_proposed();
        if !favors && break_even.is_none() {
            break_even = Some(factor);
        }
        csv.row([
            format!("{factor}"),
            format!("{:.3}", to_gbps(nic.throughput_bps)),
            format!("{:.2}", nic.watts),
            favors.to_string(),
        ]);
    }
    match break_even {
        Some(f) => {
            r.measured_line(format!(
                "the \u{a7}4.2 conclusion survives until the SmartNIC draws ~x{f} the catalog \
                 envelope; below that, the verdict is insensitive to the constant"
            ));
        }
        None => {
            r.measured_line(
                "the conclusion survives the entire x0.5–x4 sweep: it does not hinge on the \
                 synthetic power constant at all"
                    .to_owned(),
            );
        }
    }
    r.table("sensitivity-sweep", csv);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_verdict_per_factor() {
        let rep = run(Pool::new());
        let (_, csv) = &rep.tables[0];
        assert_eq!(csv.len(), 6);
        let text = rep.render();
        // At the catalog envelope the conclusion must hold.
        assert!(text.contains("1,"), "{text}");
    }

    #[test]
    fn catalog_factor_favors_the_proposal() {
        let wl = saturating_workload(91);
        let base = measure(&baseline_host(1), &wl);
        let nic = smartnic_scaled(1.0).run(&wl, RUN_NS, WARMUP_NS);
        let v = Evaluation::new(nic.as_system(), base.as_system())
            .with_baseline_scaling(&IdealLinear)
            .run()
            .verdict;
        assert!(v.favors_proposed(), "{v}");
    }
}
