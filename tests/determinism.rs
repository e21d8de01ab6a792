//! Determinism regression: the same seed must produce bit-identical
//! results no matter how the harness schedules the work. A one-worker
//! pool and a many-worker pool run the same experiments and the same
//! measurements; every byte of output must agree.

use apples_bench::experiments::run;
use apples_bench::scenarios::{
    baseline_host, faulted, measure_quick, perturbed_workload, saturating_workload, smartnic_system,
};
use apples_bench::Pool;
use apples_simnet::Measurement;

/// Experiment reports render byte-identically under serial and
/// work-stealing schedules. The subset includes the experiments that
/// themselves fan out on nested pools (crossover, rfc2544).
#[test]
fn experiment_reports_are_schedule_independent() {
    let ids = vec!["fig1a", "ex42", "rfc2544", "crossover"];
    let render_all = |pool: Pool| -> Vec<String> {
        pool.map(ids.clone(), |id| run(id, pool).expect("known id").render())
    };
    let serial = render_all(Pool::with_workers(1));
    let parallel = render_all(Pool::with_workers(4));
    assert_eq!(serial, parallel, "a report changed with the schedule");
}

/// Raw measurements are bit-identical (f64 bit patterns, not just
/// approximate equality) across schedules.
#[test]
fn measurements_are_bit_identical_across_schedules() {
    let batch = |pool: Pool| {
        pool.map((0..6u64).collect(), |seed| {
            let wl = saturating_workload(seed);
            let m = if seed % 2 == 0 {
                measure_quick(&baseline_host(2), &wl)
            } else {
                measure_quick(&smartnic_system(), &wl)
            };
            m.fingerprint()
        })
    };
    let serial = batch(Pool::with_workers(1));
    let parallel = batch(Pool::with_workers(5));
    assert_eq!(serial, parallel);
}

/// State built from unordered insertions must not depend on insertion
/// order. The DPI automaton's trie and the NF state tables are backed
/// by ordered maps precisely so that pattern/flow arrival order cannot
/// leak into results; feeding the same pattern set in permuted orders
/// must yield the same automaton size and the same match count.
#[test]
fn nf_automaton_is_insertion_order_independent() {
    use apples_simnet::nf::dpi::{AhoCorasick, Dpi};

    let base = Dpi::demo_signatures();
    let mut reversed = base.clone();
    reversed.reverse();
    let mut rotated = base.clone();
    rotated.rotate_left(base.len() / 2);

    // A haystack with guaranteed hits: noise with every signature spliced in.
    let mut haystack: Vec<u8> =
        (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    for sig in &base {
        haystack.extend_from_slice(sig);
    }

    let reference = AhoCorasick::build(&base);
    let want = (reference.states(), reference.count_matches(&haystack));
    assert!(want.1 > 0, "haystack must contain matches for the test to mean anything");
    for perm in [&reversed, &rotated] {
        let ac = AhoCorasick::build(perm);
        assert_eq!((ac.states(), ac.count_matches(&haystack)), want);
    }
}

/// Repeated in-process runs of the same experiment render byte-identical
/// reports (the map-iteration-order regression guard for the NF state
/// tables: any hash-order dependence would show up here or in the
/// schedule-independence test above).
#[test]
fn repeated_runs_render_byte_identical_reports() {
    let first = run("ex42", Pool::new()).expect("known id").render();
    let second = run("ex42", Pool::new()).expect("known id").render();
    assert_eq!(first, second);
}

/// One fault-injected measurement.
fn faulted_run(seed: u64, severity: f64) -> Measurement {
    let wl = perturbed_workload(120.0, seed, severity);
    if seed.is_multiple_of(2) {
        measure_quick(&faulted(baseline_host(2), severity), &wl)
    } else {
        measure_quick(&faulted(smartnic_system(), severity), &wl)
    }
}

/// Fault injection must not cost any determinism: the same faulted
/// measurement batch is bit-identical under 1 worker, 2 workers, and
/// the machine's full parallelism.
#[test]
fn faulted_measurements_are_bit_identical_across_schedules() {
    let batch = |pool: Pool| {
        pool.map((0..6u64).collect(), |seed| {
            let severity = [0.25, 0.5, 1.0][(seed % 3) as usize];
            faulted_run(seed, severity)
        })
    };
    let serial = batch(Pool::with_workers(1));
    let fingerprints = |runs: &[Measurement]| runs.iter().map(Measurement::fingerprint).collect();
    let want: Vec<String> = fingerprints(&serial);
    assert_eq!(want, fingerprints(&batch(Pool::with_workers(2))), "changed at 2 workers");
    assert_eq!(want, fingerprints(&batch(Pool::new())), "changed at machine parallelism");
    // And the faults actually did something in at least one run.
    assert!(
        serial.iter().any(|m| m.fault_drops + m.injected_drops > 0),
        "no faults fired anywhere: {want:?}"
    );
}

/// A faulted run is replayable from its inputs alone: rebuilding the
/// deployment, workload, and fault spec from scratch reproduces every
/// bit, including the fault counters.
#[test]
fn faulted_runs_replay_from_seed_and_spec() {
    for seed in 0..4u64 {
        let replay = || faulted_run(seed, 1.0).fingerprint();
        assert_eq!(replay(), replay(), "seed {seed}");
    }
}
