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
    baseline_host, faulted, perturbed_workload, scenario, RUN_NS, WARMUP_NS,
};
use apples_bench::Pool;
use apples_obs::{LogHistogram, ObsConfig, TimeSeries};
use apples_rng::Rng;
use apples_simnet::system::{Deployment, RunOpts};
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
fn trace_files_are_identical_across_schedulers_and_worker_counts() {
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
// Histogram determinism and merge algebra.
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

#[test]
fn histogram_merge_is_commutative_and_associative() {
    for seed in [3u64, 11, 99] {
        let xs = sample_stream(seed, 3000);
        let ys = sample_stream(seed.wrapping_mul(31), 2000);
        let zs = sample_stream(seed.wrapping_mul(101), 1000);
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));

        // Commutativity: a+b == b+a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(fingerprint(&ab), fingerprint(&ba), "merge must commute (seed {seed})");

        // Associativity: (a+b)+c == a+(b+c).
        let mut left = ab;
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(fingerprint(&left), fingerprint(&right), "merge must associate (seed {seed})");
    }
}

#[test]
fn sharded_merge_matches_the_single_stream() {
    // Recording a stream whole and recording it in shards then merging
    // must agree — the property that makes per-worker telemetry shards
    // safe to combine.
    let all = sample_stream(1234, 6000);
    let whole = hist_of(&all);
    let mut merged = LogHistogram::default();
    for shard in all.chunks(1700) {
        merged.merge(&hist_of(shard));
    }
    assert_eq!(fingerprint(&whole), fingerprint(&merged));
}

// ---------------------------------------------------------------------
// Observation must not perturb the simulation.
// ---------------------------------------------------------------------

#[test]
fn observed_and_unobserved_runs_agree_bit_for_bit() {
    let wl = perturbed_workload(120.0, 5, 0.5);
    let d = faulted(baseline_host(2), 0.5);
    let plain = d.run(&wl, RUN_NS, WARMUP_NS);
    let (observed, obs) = d.run_observed(&wl, RUN_NS, WARMUP_NS, &ObsConfig::full());
    assert_eq!(plain.fingerprint(), observed.fingerprint());
    // And the observer actually saw the run.
    assert!(obs.tracer.as_ref().is_some_and(|t| t.emitted() > 0));
    assert!(obs.telemetry.as_ref().is_some_and(|t| t.stages.iter().any(|s| s.arrivals > 0)));
    assert!(obs.spans.as_ref().is_some_and(|s| s.total_spans() > 0));
    assert!(obs.timeseries.as_ref().is_some_and(|ts| ts.total_dispatches() > 0));
    assert!(obs.sched.pushes > 0);
}

// ---------------------------------------------------------------------
// Time-series merge algebra: sharded recording == whole recording.
// ---------------------------------------------------------------------

/// Replays a seeded event stream into a series: dispatches always,
/// enqueues/drops/faults/ticks on a deterministic cadence so every
/// counter and gauge is exercised.
fn record_stream(ts: &mut TimeSeries, events: &[(u64, u64)]) {
    for &(i, t) in events {
        ts.on_dispatch(t);
        if i % 3 == 0 {
            ts.on_enqueue(t, (i % 5) as usize, i % 17);
        }
        if i % 11 == 0 {
            ts.on_drop(t);
        }
        if i % 29 == 0 {
            ts.on_fault(t);
        }
    }
}

#[test]
fn timeseries_chunked_recording_matches_the_whole_stream() {
    // Record a stream whole, then partitioned into chunks merged in a
    // scrambled order: counters and gauges must agree exactly — within
    // one stream, gauges partition cleanly (each observation lands in
    // exactly one chunk), so the full fingerprint must match.
    let mut rng = Rng::seed_from_u64(77);
    let events: Vec<(u64, u64)> = (0..20_000).map(|i| (i, rng.range_u64(0, 1 << 24))).collect();
    let mut whole = TimeSeries::new(1 << 18, 64);
    record_stream(&mut whole, &events);

    let chunks: Vec<&[(u64, u64)]> = events.chunks(3001).collect();
    let mut merged = TimeSeries::new(1 << 18, 64);
    for &idx in &[4usize, 0, 6, 2, 5, 1, 3] {
        let mut shard = TimeSeries::new(1 << 18, 64);
        record_stream(&mut shard, chunks[idx]);
        merged.merge(&shard);
    }
    assert_eq!(whole.fingerprint(), merged.fingerprint());
}

#[test]
fn timeseries_merge_commutes_under_eviction() {
    // Shards whose windows straddle the ring bound: merge order must
    // not matter even when merging itself evicts.
    let tight = |lo: u64, hi: u64, seed: u64| {
        let mut rng = Rng::seed_from_u64(seed);
        let mut ts = TimeSeries::new(1 << 10, 8);
        for _ in 0..2_000 {
            ts.on_dispatch(rng.range_u64(lo, hi));
        }
        ts
    };
    let a = tight(0, 1 << 14, 5);
    let b = tight(1 << 13, 1 << 15, 6);
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab.fingerprint(), ba.fingerprint());
}

// ---------------------------------------------------------------------
// Diagnosis metrics must not perturb: fusion x shards.
// ---------------------------------------------------------------------

fn cluster() -> Deployment {
    faulted(scenario("cluster").expect("registered scenario"), 0.3)
}

#[test]
fn diagnosis_metrics_stay_invisible_across_schedulers_fusion_and_shards() {
    let wl = perturbed_workload(12.0, 3, 0.3);
    let reference = cluster().run(&wl, RUN_NS, WARMUP_NS).fingerprint();
    for fused in [true, false] {
        for shards in 1..=4usize {
            let d = cluster().with_fusion(fused).with_shards(shards);
            let opts = RunOpts { observer: Some(ObsConfig::diagnosis()), ..RunOpts::default() };
            let out = d.run_with(&wl, RUN_NS, WARMUP_NS, opts);
            assert_eq!(
                out.measurement.fingerprint(),
                reference,
                "metrics-on run diverged (fused={fused}, shards={shards})"
            );
            let obs = out.observer.expect("an attached observer is handed back");
            assert!(
                obs.timeseries.as_ref().is_some_and(|ts| ts.total_dispatches() > 0),
                "series empty (fused={fused}, shards={shards})"
            );
            if fused && (shards == 2 || shards == 4) {
                let diag = out.shard_diag.expect("cluster plan must shard at 2 and 4");
                let (c, b, g) = diag.fractions();
                assert!((c + b + g - 1.0).abs() < 1e-9, "fractions must sum to 1: {c} + {b} + {g}");
                assert_eq!(diag.lanes.len(), shards);
                let jfi = diag.jain_index();
                assert!((0.0..=1.0 + 1e-9).contains(&jfi), "jain index {jfi}");
                assert!(diag.predicted_max_speedup() <= shards as f64 + 1e-9);
            }
        }
    }
}

#[test]
fn sharded_observed_counters_match_serial_observed() {
    // Telemetry counters and the time-series counter fields are exact
    // under sharding (each stage lives on exactly one shard; sim-time
    // bins align); gauges only bound the serial value, so they stay out
    // of the comparison.
    let wl = perturbed_workload(12.0, 3, 0.3);
    let cfg = ObsConfig { trace_capacity: 0, telemetry: true, spans: false, timeseries: true };
    let (m_serial, serial) = cluster().run_observed(&wl, RUN_NS, WARMUP_NS, &cfg);
    let names: Vec<String> = m_serial.stages.iter().map(|s| s.name.to_owned()).collect();
    let serial_tel = serial.telemetry.as_ref().expect("telemetry on").to_json(&names).render();
    let serial_series = serial.timeseries.as_ref().expect("series on");

    for shards in [2usize, 4] {
        let (m, sharded) = cluster().with_shards(shards).run_observed(&wl, RUN_NS, WARMUP_NS, &cfg);
        assert_eq!(m.fingerprint(), m_serial.fingerprint(), "shards={shards}");
        let sharded_tel =
            sharded.telemetry.as_ref().expect("telemetry on").to_json(&names).render();
        assert_eq!(sharded_tel, serial_tel, "telemetry diverged at shards={shards}");
        let series = sharded.timeseries.as_ref().expect("series on");
        assert_eq!(series.len(), serial_series.len(), "bin count at shards={shards}");
        for ((idx_a, a), (idx_b, b)) in series.bins().zip(serial_series.bins()) {
            assert_eq!(idx_a, idx_b, "bin index at shards={shards}");
            assert_eq!(
                (a.dispatches, a.enqueues, a.drops, a.faults),
                (b.dispatches, b.enqueues, b.drops, b.faults),
                "counters diverged in interval {idx_a} at shards={shards}"
            );
        }
    }
}
