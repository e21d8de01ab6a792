//! Per-stage telemetry experiment: each stage's counts (from the
//! engine's stage reports) beside the observability layer's fault-action
//! counts and wait/service/queue-depth distributions, for the
//! worked-example contenders, clean and under moderate faults.
//!
//! Where the other experiments report each system as one operating
//! point, this one opens the box: which stage does the work, where
//! packets queue, and how the fault layer's losses distribute across
//! the pipeline — all from the same deterministic runs, so every number
//! here is byte-reproducible.

use crate::report::ExperimentReport;
use crate::scenarios::{
    contenders, faulted, perturbed_workload, severity_ladder, RUN_NS, WARMUP_NS,
};
use apples_core::report::Csv;
use apples_obs::ObsConfig;

/// The moderate rung of the (effective) severity ladder, where faults
/// bite without flattening every distribution. Read from
/// [`severity_ladder`] so a targeted override genuinely changes this
/// experiment, keeping its provenance digest honest.
fn moderate_severity() -> f64 {
    severity_ladder("telemetry")
        .into_iter()
        .find(|(name, _)| name == "moderate")
        .map_or(0.5, |(_, s)| s)
}

/// Runs the telemetry experiment.
pub fn run() -> ExperimentReport {
    let mut r = ExperimentReport::new(
        "telemetry",
        "per-stage telemetry: counters and wait/service distributions, clean vs moderate faults",
    );
    r.paper_line(
        "(extension — deterministic observability: the per-stage story behind each verdict, \
         from runs whose simulated numbers are byte-identical to the unobserved ones)",
    );

    let mut csv = Csv::new([
        "condition",
        "system",
        "stage",
        "arrivals",
        "served",
        "drops",
        "fault_events",
        "peak_depth",
        "wait_p50_ns",
        "wait_p99_ns",
        "svc_p50_ns",
        "svc_p99_ns",
    ]);
    for (cond, severity) in [("clean", 0.0), ("moderate", moderate_severity())] {
        for &(label, build) in contenders() {
            let wl = perturbed_workload(120.0, 1, severity);
            let (m, obs) = faulted(build(), severity).run_observed(
                &wl,
                RUN_NS,
                WARMUP_NS,
                &ObsConfig::telemetry_only(),
            );
            let Some(tel) = obs.telemetry.as_ref() else { continue };
            // Counts from the engine's stage reports, distributions
            // from telemetry; both are index-aligned.
            for (st, t) in m.stages.iter().zip(&tel.stages) {
                csv.row([
                    cond.to_owned(),
                    label.to_owned(),
                    st.name.to_owned(),
                    format!("{}", st.arrivals),
                    format!("{}", st.served),
                    format!("{}", st.drops()),
                    format!("{}", t.fault_events),
                    format!("{}", t.depth.max()),
                    format!("{}", t.wait_ns.quantile(0.50)),
                    format!("{}", t.wait_ns.quantile(0.99)),
                    format!("{}", t.service_ns.quantile(0.50)),
                    format!("{}", t.service_ns.quantile(0.99)),
                ]);
            }
            if cond == "moderate" {
                let busiest = tel
                    .busiest_stage()
                    .and_then(|i| m.stages.get(i))
                    .map_or_else(|| "none".to_owned(), |s| s.name.to_owned());
                let deepest = tel
                    .deepest_queue()
                    .and_then(|i| m.stages.get(i))
                    .map_or_else(|| "none".to_owned(), |s| s.name.to_owned());
                r.measured_line(format!(
                    "{label} at moderate faults: busiest stage {busiest}, deepest queue \
                     {deepest}, {} fault-layer drops",
                    m.stages.iter().map(|s| s.fault_drops).sum::<u64>(),
                ));
            }
        }
    }
    r.measured_line(
        "telemetry is collected whole-run (not warmup-gated); the observed runs' \
         measurements are bit-identical to the unobserved baselines"
            .to_owned(),
    );
    r.table("stage-telemetry", csv);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_report_covers_both_conditions_and_all_contenders() {
        let r = run();
        let (_, csv) = &r.tables[0];
        // base-2c has 1 stage, smartnic 2, switch 2 -> 5 rows per condition.
        assert_eq!(csv.len(), 10, "2 conditions x (1 + 2 + 2) stages");
        let text = r.render();
        assert!(text.contains("busiest stage"), "{text}");
        assert!(text.contains("clean"), "{text}");
        assert!(text.contains("moderate"), "{text}");
    }

    #[test]
    fn telemetry_report_is_deterministic() {
        assert_eq!(run().render(), run().render());
    }
}
