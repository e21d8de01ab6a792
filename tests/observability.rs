//! Integration suite for the deterministic observability layer.
//!
//! The contract under test: observing a run changes *nothing* about the
//! run, and the artifacts the observer emits are pure functions of
//! `(seed, spec)` — byte-identical across repeat runs and harness
//! worker counts, with one Chrome trace pinned as a golden fixture in
//! `tests/golden_traces/`.
//!
//! To regenerate the trace fixture after an intentional change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test --test observability
//! git diff tests/golden_traces/
//! ```

use apples_bench::runcmd::{run, RunOptions};
use apples_bench::scenarios::{
    baseline_host, faulted, ips_chain, ips_needles, perturbed_workload, scenario, RUN_NS, WARMUP_NS,
};
use apples_bench::Pool;
use apples_obs::{LogHistogram, ObsConfig};
use apples_rng::Rng;
use apples_simnet::nf::NfChain;
use apples_simnet::system::Deployment;
use apples_workload::{ArrivalProcess, PacketSizeDist, WorkloadSpec};
use std::path::PathBuf;

fn moderate_smartnic() -> RunOptions {
    // A compact ring keeps the golden fixture reviewable while still
    // spanning thousands of events across every stage.
    RunOptions { severity: 0.5, trace_ring: Some(1024), ..RunOptions::default() }
}

/// The Chrome trace of one `xp run`, whose runs must all have matched
/// the unobserved reference.
fn trace_of(opts: &RunOptions) -> String {
    let out = run(opts).expect("registered scenario");
    assert!(out.passed, "{}", out.summary);
    out.chrome_json.expect("traced run")
}

// ---------------------------------------------------------------------
// Trace determinism: serial vs parallel.
// ---------------------------------------------------------------------

#[test]
fn trace_files_are_identical_across_worker_counts() {
    let reference = trace_of(&moderate_smartnic());

    // Traced concurrently on a multi-worker pool: every file must equal
    // the serially-produced reference byte-for-byte.
    let traced = Pool::with_workers(4).map(vec![(); 4], |()| trace_of(&moderate_smartnic()));
    for (i, json) in traced.iter().enumerate() {
        assert_eq!(
            json, &reference,
            "trace {i} diverged from the serial reference: traces must be a pure \
             function of (seed, spec)"
        );
    }
}

#[test]
fn trace_files_depend_on_seed_and_severity() {
    let base = trace_of(&moderate_smartnic());
    let other_seed = RunOptions { seed: 2, ..moderate_smartnic() };
    assert_ne!(base, trace_of(&other_seed), "different seeds must trace differently");
    let clean = RunOptions { severity: 0.0, ..moderate_smartnic() };
    assert_ne!(base, trace_of(&clean), "fault severity must show up in the trace");
}

// ---------------------------------------------------------------------
// Golden Chrome trace fixture.
// ---------------------------------------------------------------------

fn golden_traces_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden_traces")
}

const TRACE_FIXTURES: [&str; 1] = ["smartnic-moderate"];

#[test]
fn chrome_trace_matches_its_golden_fixture() {
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    let dir = golden_traces_dir();
    if regen {
        std::fs::create_dir_all(&dir).expect("create tests/golden_traces");
    }
    let json = trace_of(&moderate_smartnic());
    let path = dir.join("smartnic-moderate.json");
    if regen {
        std::fs::write(&path, &json).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run GOLDEN_REGEN=1 cargo test --test observability",
            path.display()
        )
    });
    assert_eq!(
        want, json,
        "Chrome trace differs from tests/golden_traces/smartnic-moderate.json \
         (GOLDEN_REGEN=1 to regenerate after intentional changes)"
    );
}

#[test]
fn golden_traces_dir_has_no_stale_fixtures() {
    let Ok(entries) = std::fs::read_dir(golden_traces_dir()) else {
        // Directory absent entirely: the fixture test reports that.
        return;
    };
    for entry in entries {
        let name = entry.expect("read dir entry").file_name();
        let name = name.to_string_lossy();
        let Some(stem) = name.strip_suffix(".json") else {
            panic!("unexpected non-fixture file in tests/golden_traces/: {name}");
        };
        assert!(TRACE_FIXTURES.contains(&stem), "stale trace fixture: {name}");
    }
}

// ---------------------------------------------------------------------
// Histogram determinism.
// ---------------------------------------------------------------------

/// A seeded sample stream mixing magnitudes from ns to seconds.
fn sample_stream(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let magnitude = rng.range_u64(0, 30);
            rng.range_u64(0, 1 << magnitude)
        })
        .collect()
}

fn hist_of(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::default();
    for &v in values {
        h.record(v);
    }
    h
}

/// Everything observable about a histogram, for equality checks.
fn fingerprint(h: &LogHistogram) -> String {
    let qs: Vec<String> =
        [0.0, 0.25, 0.5, 0.9, 0.99, 1.0].iter().map(|&q| h.quantile(q).to_string()).collect();
    format!("{};{};{};{}", h.count(), h.max(), qs.join(","), h.summary_json().render())
}

#[test]
fn histogram_recording_is_deterministic() {
    for seed in [1u64, 7, 42] {
        let a = hist_of(&sample_stream(seed, 4000));
        let b = hist_of(&sample_stream(seed, 4000));
        assert_eq!(fingerprint(&a), fingerprint(&b), "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Observation must not perturb the simulation.
// ---------------------------------------------------------------------

#[test]
fn observed_and_unobserved_runs_agree_bit_for_bit() {
    // Bursty Poisson arrivals of IMIX frames collide on timestamps, so
    // same-time buckets hold several events; under CBR the largest
    // holds one.
    let bursty = WorkloadSpec {
        sizes: PacketSizeDist::Imix,
        arrivals: ArrivalProcess::Poisson { rate_pps: 4e6 },
        flows: 64,
        zipf_s: 1.0,
        seed: 5,
    }
    .with_overload_bursts(3.0, 500_000, 2_000_000);
    let smartnic_dpi =
        Deployment::smartnic_offload("smartnic-dpi", 4, ips_chain, 1, NfChain::empty)
            .with_payloads(0.05, ips_needles());
    let cases = [
        (faulted(baseline_host(2), 0.5), perturbed_workload(120.0, 5, 0.5)),
        (scenario("cluster").expect("registered scenario"), bursty.clone()),
        (smartnic_dpi, bursty),
    ];
    for (d, wl) in cases {
        let name = d.name();
        let plain = d.run(&wl, RUN_NS, WARMUP_NS);
        let (observed, obs) = d.run_observed(&wl, RUN_NS, WARMUP_NS, &ObsConfig::full());
        assert_eq!(plain.fingerprint(), observed.fingerprint(), "{name}");
        // And the observer actually saw the run.
        assert!(obs.tracer.as_ref().is_some_and(|t| t.emitted() > 0), "{name}");
        // Telemetry's completions are the engine's served counts, stage
        // for stage: `xp run` ranks stages by the one and prints the other.
        let tel = obs.telemetry.as_ref().expect("telemetry is on");
        let completions: Vec<u64> = tel.stages.iter().map(|s| s.service_ns.count()).collect();
        let served: Vec<u64> = plain.stages.iter().map(|s| s.served).collect();
        assert!(served.iter().any(|&n| n > 0), "{name}");
        assert_eq!(completions, served, "{name}");
        assert!(obs.spans.as_ref().is_some_and(|s| s.total_spans() > 0), "{name}");
        assert!(obs.timeseries.as_ref().is_some_and(|ts| ts.total_dispatches() > 0), "{name}");
        assert!(obs.sched.pushes > 0, "{name}");
    }
}

// ---------------------------------------------------------------------
// Diagnosis metrics must not perturb, fused or unfused.
// ---------------------------------------------------------------------

fn cluster() -> Deployment {
    faulted(scenario("cluster").expect("registered scenario"), 0.3)
}

#[test]
fn diagnosis_metrics_stay_invisible_across_fusion() {
    let wl = perturbed_workload(12.0, 3, 0.3);
    let reference = cluster().run(&wl, RUN_NS, WARMUP_NS).fingerprint();
    for fused in [true, false] {
        let d = cluster().with_fusion(fused);
        let (observed, obs) = d.run_observed(&wl, RUN_NS, WARMUP_NS, &ObsConfig::diagnosis());
        assert_eq!(observed.fingerprint(), reference, "metrics-on run diverged (fused={fused})");
        assert!(
            obs.timeseries.as_ref().is_some_and(|ts| ts.total_dispatches() > 0),
            "series empty (fused={fused})"
        );
    }
}
