//! Property suite for pipeline fusion: the fused hot path (zero-latency
//! stage hops processed inside one timestamp walk) must be
//! observationally identical to the unfused reference path (every hop
//! re-enqueued through the event queue), bit for bit, on *random*
//! combinations of scenario, fault severity, and workload seed.
//!
//! The draws are seeded, so the fusion equivalence is exercised across
//! the whole configuration lattice, not just the corners we thought of,
//! and any counterexample replays.

use apples_bench::scenarios::{
    baseline_host, faulted, firewall_chain, measure_quick, optimized_host, perturbed_workload,
    saturating_workload, scenario, smartnic_system, switch_system, SEVERITY_LADDER,
};
use apples_rng::Rng;
use apples_simnet::engine::BatchPolicy;
use apples_simnet::Deployment;

type BuildFn = fn() -> Deployment;

/// The scenario families the harness measures, as rebuildable factories
/// (a `Deployment` is consumed by the builder-style `with_*` calls).
fn scenario_pool() -> Vec<(&'static str, BuildFn)> {
    vec![
        ("baseline-2c", || baseline_host(2)),
        ("optimized-1c", || optimized_host(1)),
        ("smartnic", smartnic_system),
        ("switch-4c", || switch_system(4)),
        // The batching experiment's deployment: an rx-core handing
        // packets to a batched GPU stage, so a forwarded hop lands in a
        // batch.
        ("gpu-offload", || {
            Deployment::gpu_offload(
                "gpu-fw",
                BatchPolicy::new(256, 100_000, 15_000),
                firewall_chain,
            )
        }),
        // Flow-hash fan-outs: an ECMP splitter in front of four hosts,
        // and an RSS demux in front of four single-core stages.
        ("cluster", || scenario("cluster").expect("registered scenario")),
        ("rss", || scenario("rss").expect("registered scenario")),
    ]
}

/// Seeded random (scenario, severity, seed) combos: the
/// fused and unfused paths must produce byte-identical measurements on
/// every draw. Failures print the full combo so any counterexample is
/// replayable by hand.
#[test]
fn fused_pipeline_matches_unfused_on_random_combos() {
    let scenarios = scenario_pool();
    let mut rng = Rng::seed_from_u64(0xF0_5ED);
    let mut faulted_runs = 0u32;
    for draw in 0..12 {
        let (name, build) = scenarios[rng.range_u64(0, scenarios.len() as u64) as usize];
        let (sev_name, severity) =
            SEVERITY_LADDER[rng.range_u64(0, SEVERITY_LADDER.len() as u64) as usize];
        let seed = rng.range_u64(0, 64);
        let wl = perturbed_workload(120.0, seed, severity);
        let with_severity = |d: Deployment| {
            if severity > 0.0 {
                faulted(d, severity)
            } else {
                d
            }
        };
        if severity > 0.0 {
            faulted_runs += 1;
        }
        let fused = measure_quick(&with_severity(build()), &wl);
        let unfused = measure_quick(&with_severity(build()).with_fusion(false), &wl);
        assert_eq!(
            fused.fingerprint(),
            unfused.fingerprint(),
            "fused/unfused diverged: draw {draw}, scenario {name}, severity {sev_name}, \
             seed {seed}"
        );
    }
    assert!(faulted_runs > 0, "the severity draws never exercised the fault path");
}

/// Every scenario family under a saturating workload: the fused and
/// unfused runs agree bit for bit.
#[test]
fn every_scenario_matches_unfused_under_saturation() {
    for (name, build) in scenario_pool() {
        let wl = saturating_workload(11);
        let fused = measure_quick(&build(), &wl).fingerprint();
        let unfused = measure_quick(&build().with_fusion(false), &wl).fingerprint();
        assert_eq!(fused, unfused, "{name} diverged unfused");
    }
}

/// Fusion identity survives the full severity ladder on the faulted
/// smartnic deployment: fault events ride the event queue (never the
/// fused FIFO), so every rung must agree bit-for-bit.
#[test]
fn fused_pipeline_matches_unfused_across_severity_ladder() {
    for &(sev_name, severity) in SEVERITY_LADDER.iter().filter(|&&(_, s)| s > 0.0) {
        let wl = perturbed_workload(120.0, 5, severity);
        let fused = measure_quick(&faulted(smartnic_system(), severity), &wl);
        let unfused = measure_quick(&faulted(smartnic_system(), severity).with_fusion(false), &wl);
        assert_eq!(fused.fingerprint(), unfused.fingerprint(), "diverged at severity {sev_name}");
    }
}
