//! One module per paper artifact; see DESIGN.md's experiment index.

pub mod ablations;
pub mod batching;
pub mod checklist;
pub mod crossover;
pub mod efficiency;
pub mod ex41;
pub mod ex42;
pub mod ex421;
pub mod ex43;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod ips;
pub mod multihost;
pub mod multimetric;
pub mod noise;
pub mod rfc2544;
pub mod robustness;
pub mod rss;
pub mod sensitivity;
pub mod table1;
pub mod telemetry;

use crate::pool::Pool;
use crate::report::ExperimentReport;
use crate::scenarios::{severity_ladder, WARMUP_NS};
use apples_obs::{fnv1a_hex, Provenance};
use apples_simnet::fault::FaultSpec;

/// Every experiment id, in presentation order.
pub const ALL_IDS: [&str; 27] = [
    "table1",
    "fig1a",
    "fig1b",
    "fig2",
    "fig3",
    "ex41",
    "ex42",
    "ex421",
    "ex43",
    "crossover",
    "ips",
    "multimetric",
    "efficiency",
    "rfc2544",
    "multihost",
    "batching",
    "sensitivity",
    "checklist",
    "telemetry",
    "ablation-scaling",
    "ablation-coverage",
    "ablation-jfi",
    "ablation-rss",
    "ablation-noise",
    "robustness-frontier",
    "robustness-verdict",
    "robustness-crossover",
];

/// True for the experiments whose numbers depend on the fault layer —
/// their provenance (and store keys) carry the severity-ladder digest.
pub fn uses_faults(id: &str) -> bool {
    id.starts_with("robustness-") || id == "telemetry"
}

/// Digest of one experiment's configuration: the id plus the shared
/// scenario calibration every experiment builds on, byte-compatible
/// with the PR-5 stamp format.
pub fn config_digest(id: &str) -> String {
    let config = format!(
        "id={id};fw_rules={};deny={:?};fw_seed={};alpha={:?};run_ns={};warmup_ns={}",
        crate::scenarios::FW_RULES,
        crate::scenarios::FW_DENY_FRACTION,
        crate::scenarios::FW_SEED,
        crate::scenarios::CONTENTION_ALPHA,
        crate::scenarios::RUN_NS,
        WARMUP_NS,
    );
    fnv1a_hex(config.as_bytes())
}

/// Digest of one experiment's effective severity ladder: the
/// concatenated [`FaultSpec::at_severity`] digests of every rung,
/// hashed once. Any change to the ladder or the fault mix behind it —
/// including a targeted `APPLES_SEVERITY_OVERRIDE` — shows up in the
/// fault-injecting report's provenance.
pub fn ladder_digest(id: &str) -> String {
    let concat: Vec<String> =
        severity_ladder(id).iter().map(|(_, s)| FaultSpec::at_severity(*s).digest()).collect();
    fnv1a_hex(concat.join(",").as_bytes())
}

/// The fault-digest provenance field for one experiment: the ladder
/// digest when faults are in play, the stable string `none` otherwise.
pub fn fault_digest(id: &str) -> String {
    if uses_faults(id) {
        ladder_digest(id)
    } else {
        "none".to_owned()
    }
}

/// The full provenance stamp for one experiment id — the same value the
/// report carries and the store keys on, which is what makes a cache
/// hit provably equivalent to a re-run.
pub fn experiment_provenance(id: &str) -> Provenance {
    Provenance::new(1, fault_digest(id), config_digest(id))
}

/// Stamps a report with the harness-level provenance: the reference
/// workload seed, the fault digest (the severity-ladder digest for
/// fault-injecting experiments, `none` otherwise), and a digest over
/// the shared scenario calibration that every experiment builds on.
fn stamp(mut report: ExperimentReport) -> ExperimentReport {
    report.set_provenance(experiment_provenance(report.id));
    report
}

/// Runs one experiment by id. Experiments that fan out (crossover,
/// rfc2544, sensitivity, the robustness family) run their inner maps on
/// `pool`, so the caller's worker count sizes every level of the run.
pub fn run(id: &str, pool: Pool) -> Option<ExperimentReport> {
    run_unstamped(id, pool).map(stamp)
}

fn run_unstamped(id: &str, pool: Pool) -> Option<ExperimentReport> {
    match id {
        "table1" => Some(table1::run()),
        "fig1a" => Some(fig1::run_fig1a()),
        "fig1b" => Some(fig1::run_fig1b()),
        "fig2" => Some(fig2::run()),
        "fig3" => Some(fig3::run()),
        "ex41" => Some(ex41::run()),
        "ex42" => Some(ex42::run()),
        "ex421" => Some(ex421::run()),
        "ex43" => Some(ex43::run()),
        "crossover" => Some(crossover::run(pool)),
        "ips" => Some(ips::run()),
        "multimetric" => Some(multimetric::run()),
        "efficiency" => Some(efficiency::run()),
        "rfc2544" => Some(rfc2544::run(pool)),
        "multihost" => Some(multihost::run()),
        "batching" => Some(batching::run()),
        "sensitivity" => Some(sensitivity::run(pool)),
        "checklist" => Some(checklist::run()),
        "telemetry" => Some(telemetry::run()),
        "ablation-scaling" => Some(ablations::run_scaling()),
        "ablation-coverage" => Some(ablations::run_coverage()),
        "ablation-jfi" => Some(ablations::run_jfi()),
        "ablation-rss" => Some(rss::run()),
        "ablation-noise" => Some(noise::run()),
        "robustness-frontier" => Some(robustness::run_frontier(pool)),
        "robustness-verdict" => Some(robustness::run_verdict(pool)),
        "robustness-crossover" => Some(robustness::run_crossover(pool)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_id_runs() {
        for id in ALL_IDS {
            let r = run(id, Pool::new()).unwrap_or_else(|| panic!("experiment {id} missing"));
            assert!(!r.render().is_empty());
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run("nope", Pool::new()).is_none());
    }

    #[test]
    fn every_report_is_provenance_stamped() {
        let clean = run("fig2", Pool::new()).expect("known id");
        let p = clean.provenance.as_ref().expect("stamped");
        assert_eq!(p.fault_digest, "none");
        let faulted = run("robustness-crossover", Pool::new()).expect("known id");
        let pf = faulted.provenance.as_ref().expect("stamped");
        assert_eq!(pf.fault_digest, ladder_digest("robustness-crossover"));
        assert_ne!(pf.fault_digest, "none");
        // Config digests differ per id (the id is part of the config).
        assert_ne!(p.config_digest, pf.config_digest);
    }
}
