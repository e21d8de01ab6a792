//! Robustness suite: do the paper's worked-example conclusions survive
//! deterministic fault injection?
//!
//! A fair comparison holds the workload *and the environment* fixed; a
//! robust conclusion additionally survives when the environment degrades
//! the same way for every contender. These experiments re-run the §4
//! worked examples under the shared severity ladder
//! ([`crate::scenarios::SEVERITY_LADDER`]) — packet drops, corruption,
//! transient device slowdowns, and outages from
//! `apples_simnet::FaultSpec::at_severity`, plus severity-scaled arrival
//! overload bursts — and report how the Pareto frontier, the
//! fair-comparison verdicts, and the efficiency crossover move. Every
//! faulted run replays exactly from `(seed, FaultPlan)`, so the whole
//! suite is as deterministic as the clean experiments it perturbs.

use crate::pool::Pool;
use crate::report::ExperimentReport;
use crate::scenarios::{
    baseline_host, contenders, faulted, measure, measure_quick, perturbed_workload,
    saturating_workload, severity_ladder, smartnic_system, to_gbps,
};
use apples_core::report::Csv;
use apples_core::scaling::IdealLinear;
use apples_core::{bootstrap_mean_ci, pareto_frontier, Evaluation};
use apples_simnet::system::Measurement;

/// Bootstrap resamples for replication confidence intervals.
const RESAMPLES: usize = 300;
/// Seed for the (deterministic) bootstrap resampling stream.
const BOOTSTRAP_SEED: u64 = 0xB007;

/// Frontier membership under faults: which systems stay Pareto-optimal
/// on (throughput, watts) as the severity ladder climbs. Both fan-outs
/// run on `pool`.
pub fn run_frontier(pool: Pool) -> ExperimentReport {
    let mut r = ExperimentReport::new(
        "robustness-frontier",
        "robustness: Pareto frontier membership across the fault-severity ladder",
    );
    r.paper_line("(extension — §4's comparisons re-run under deterministic fault injection: a conclusion that only holds on a fault-free network is an apples-to-oranges claim about real deployments)");

    let mut csv = Csv::new(["severity", "system", "gbps", "watts", "fault_drops", "on_frontier"]);
    let mut clean_members: Vec<String> = Vec::new();
    let mut shifted = Vec::new();
    // 4 severities x 3 systems; each severity's trio runs on the pool.
    let rows = pool.map(severity_ladder("robustness-frontier"), |(name, s)| {
        let runs = pool.run::<(&'static str, Measurement), _>(
            contenders()
                .iter()
                .map(|&(label, build)| {
                    Box::new(move || {
                        (label, measure(&faulted(build(), s), &saturating_workload(1)))
                    })
                        as Box<dyn FnOnce() -> (&'static str, Measurement) + Send>
                })
                .collect(),
        );
        (name, s, runs)
    });
    for (name, _s, runs) in rows {
        let points: Vec<_> = runs.iter().map(|(_, m)| m.throughput_power_point()).collect();
        let members = pareto_frontier(&points);
        let member_names: Vec<String> = members.iter().map(|&i| runs[i].0.to_owned()).collect();
        for (i, (label, m)) in runs.iter().enumerate() {
            csv.row([
                name.clone(),
                (*label).to_owned(),
                format!("{:.3}", to_gbps(m.throughput_bps)),
                format!("{:.2}", m.watts),
                format!("{}", m.fault_drops + m.injected_drops),
                format!("{}", members.contains(&i)),
            ]);
        }
        if name == "none" {
            clean_members = member_names;
        } else if member_names != clean_members {
            shifted.push(name);
        }
    }
    r.measured_line(format!("clean frontier: {}", clean_members.join(", ")));
    if shifted.is_empty() {
        r.measured_line(
            "frontier membership is fault-invariant across the ladder: every contender \
             degrades proportionally, so the clean comparison generalizes"
                .to_owned(),
        );
    } else {
        r.measured_line(format!(
            "frontier membership shifts at severity {}: the clean ranking does not survive \
             degraded operation — report both or qualify the claim",
            shifted.join(", ")
        ));
    }
    r.table("frontier-vs-severity", csv);
    r
}

/// Verdict stability under faults, with replications: the §4.2
/// smartnic-vs-baseline verdict re-judged per severity over several
/// seeds, with percentile-bootstrap CIs on the throughput samples.
pub fn run_verdict(pool: Pool) -> ExperimentReport {
    run_verdict_with(&[201, 202, 203, 204, 205], pool)
}

/// [`run_verdict`] with an explicit replication seed list (the tests
/// trim it).
pub fn run_verdict_with(seeds: &[u64], pool: Pool) -> ExperimentReport {
    let mut r = ExperimentReport::new(
        "robustness-verdict",
        "robustness: fair-comparison verdict stability under faults, with replications",
    );
    r.paper_line("(extension — Principle 4's verdict re-judged per fault severity; replications + bootstrap CIs say whether a flip is signal or seed noise)");

    let mut csv =
        Csv::new(["severity", "replications", "base_gbps_ci", "nic_gbps_ci", "favorable_verdicts"]);
    let mut flips = Vec::new();
    // The shared ladder minus the "light" rung: with replications the
    // verdict sweep is the most expensive robustness experiment, and
    // light faults never flip it.
    let severities: Vec<(String, f64)> = severity_ladder("robustness-verdict")
        .into_iter()
        .filter(|(name, _)| name != "light")
        .collect();
    let mut clean_favors = None;
    // 3 severities x |seeds| replications x 2 systems, short windows.
    let rows = pool.map(severities, |(name, s)| {
        let reps = pool.map(seeds.to_vec(), |seed| {
            let wl = perturbed_workload(120.0, seed, s);
            let base = measure_quick(&faulted(baseline_host(2), s), &wl);
            let nic = measure_quick(&faulted(smartnic_system(), s), &wl);
            let favors = Evaluation::new(nic.as_system(), base.as_system())
                .with_baseline_scaling(&IdealLinear)
                .run()
                .verdict
                .favors_proposed();
            (to_gbps(base.throughput_bps), to_gbps(nic.throughput_bps), favors)
        });
        (name, reps)
    });
    for (name, reps) in rows {
        let base_gbps: Vec<f64> = reps.iter().map(|r| r.0).collect();
        let nic_gbps: Vec<f64> = reps.iter().map(|r| r.1).collect();
        let favorable = reps.iter().filter(|r| r.2).count();
        let majority = favorable * 2 > reps.len();
        let base_ci = bootstrap_mean_ci(&base_gbps, RESAMPLES, BOOTSTRAP_SEED);
        let nic_ci = bootstrap_mean_ci(&nic_gbps, RESAMPLES, BOOTSTRAP_SEED);
        csv.row([
            name.clone(),
            format!("{}", reps.len()),
            format!("{base_ci}"),
            format!("{nic_ci}"),
            format!("{favorable}/{}", reps.len()),
        ]);
        match clean_favors {
            None => clean_favors = Some(majority),
            Some(clean) if clean != majority => flips.push(name.clone()),
            Some(_) => {}
        }
        r.measured_line(format!(
            "severity {name}: base {base_ci} Gbps, smartnic {nic_ci} Gbps, \
             verdict favors smartnic in {favorable}/{} replications",
            reps.len()
        ));
    }
    if flips.is_empty() {
        r.measured_line(
            "the majority verdict is stable across the ladder — the §4.2 conclusion is \
             robust to the injected fault mix"
                .to_owned(),
        );
    } else {
        r.measured_line(format!("majority verdict flips at severity {}", flips.join(", ")));
    }
    r.table("verdict-vs-severity", csv);
    r
}

/// Crossover shift under faults: does the load at which the smartnic
/// design first defensibly wins move when the environment degrades?
pub fn run_crossover(pool: Pool) -> ExperimentReport {
    let mut r = ExperimentReport::new(
        "robustness-crossover",
        "robustness: efficiency-crossover load under moderate faults",
    );
    r.paper_line("(extension — the crossover experiment's operating-regime boundary re-measured in a degraded environment)");

    let loads = [2.0, 5.0, 10.0, 20.0];
    let severity = 0.5;
    let mut csv =
        Csv::new(["offered_gbps", "clean_nic_wins", "faulted_nic_wins", "faulted_fault_drops"]);
    let mut first_clean = None;
    let mut first_faulted = None;
    // 4 loads x 2 conditions x 2 systems.
    let points = pool.map(loads.to_vec(), |load| {
        let judge = |s: f64| {
            let wl = perturbed_workload(load, 11, s);
            let base = measure_quick(&faulted(baseline_host(2), s), &wl);
            let nic = measure_quick(&faulted(smartnic_system(), s), &wl);
            let favors = Evaluation::new(nic.as_system(), base.as_system())
                .with_baseline_scaling(&IdealLinear)
                .run()
                .verdict
                .favors_proposed();
            (favors, nic.fault_drops + nic.injected_drops)
        };
        let (clean_wins, _) = judge(0.0);
        let (faulted_wins, drops) = judge(severity);
        (load, clean_wins, faulted_wins, drops)
    });
    for (load, clean_wins, faulted_wins, drops) in points {
        if clean_wins && first_clean.is_none() {
            first_clean = Some(load);
        }
        if faulted_wins && first_faulted.is_none() {
            first_faulted = Some(load);
        }
        csv.row([
            format!("{load}"),
            format!("{clean_wins}"),
            format!("{faulted_wins}"),
            format!("{drops}"),
        ]);
    }
    let fmt = |l: Option<f64>| l.map_or("never".to_owned(), |l| format!("{l} Gbps"));
    r.measured_line(format!("clean crossover: smartnic first wins at {}", fmt(first_clean)));
    r.measured_line(format!(
        "moderate-fault crossover: smartnic first wins at {}",
        fmt(first_faulted)
    ));
    r.measured_line(if first_clean == first_faulted {
        "the crossover load is unchanged under moderate faults — the regime boundary is \
         a property of the designs, not of a pristine network"
            .to_owned()
    } else {
        "the crossover load moves under faults: the operating-regime advice must name the \
         environment it was measured in"
            .to_owned()
    });
    r.table("crossover-vs-faults", csv);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_report_covers_the_ladder() {
        let r = run_frontier(Pool::new());
        let (_, csv) = &r.tables[0];
        let rungs = severity_ladder("robustness-frontier").len();
        assert_eq!(csv.len(), rungs * 3, "4 severities x 3 systems");
        let text = r.render();
        assert!(text.contains("clean frontier"), "{text}");
    }

    #[test]
    fn frontier_reports_are_deterministic() {
        assert_eq!(run_frontier(Pool::new()).render(), run_frontier(Pool::new()).render());
    }

    #[test]
    fn verdict_report_carries_cis_and_replication_counts() {
        let r = run_verdict_with(&[201, 202, 203], Pool::new());
        let text = r.render();
        assert!(text.contains("300 resamples"), "{text}");
        assert!(text.contains("/3 replications"), "{text}");
    }

    #[test]
    fn crossover_report_names_both_conditions() {
        let text = run_crossover(Pool::new()).render();
        assert!(text.contains("clean crossover"), "{text}");
        assert!(text.contains("moderate-fault crossover"), "{text}");
    }
}
