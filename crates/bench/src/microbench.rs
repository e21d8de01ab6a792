//! `xp bench`: the in-repo micro-benchmark, replacing the old Criterion
//! benches with a zero-dependency harness.
//!
//! Its sections, emitted as `BENCH_simnet.json`:
//!
//! 1. **Engine scenarios, fused against unfused.** Each scenario runs
//!    with pipeline fusion and without it (every zero-latency hop
//!    re-enqueued). The results must be identical, and the median
//!    per-round unfused/fused wall-clock ratio, what fusion buys, must
//!    not fall below [`FUSED_SPEEDUP_MIN`]. Each entry also reports the
//!    slab's peak live events and bytes.
//! 2. **Observability.** Zero cost when off, bounded cost when on (see
//!    `obs_section`).
//!
//! Both sections time their configurations with `interleaved`, and
//! [`gate`] holds the identity checks and the fusion floor; `xp bench`
//! exits 1 when it fails. Everything simulated is deterministic, so
//! every number but the wall times is exactly reproducible.

use crate::scenarios::{baseline_host, saturating_workload};
use crate::wallclock::WallClock;
use apples_core::json::Json;
use apples_core::stats::{bootstrap_mean_ci, BootstrapCi};
use apples_obs::{ObsConfig, RunObserver};
use apples_simnet::engine::{cold_slot_bytes, hot_slot_bytes, BatchPolicy, Engine, StageConfig};
use apples_simnet::nf::NfChain;
use apples_simnet::service::{FixedTime, LineRate, NfService};
use apples_workload::WorkloadSpec;

/// The floor on every engine scenario's fused ratio (unfused over fused
/// wall time): fusion may be a no-op on a pipeline with no hop to fuse,
/// never a slowdown.
pub const FUSED_SPEEDUP_MIN: f64 = 0.85;

/// Bootstrap resamples behind every reported CI.
const BOOTSTRAP_RESAMPLES: usize = 200;

/// The numbers the gates check, pulled out of the JSON.
#[derive(Debug, Clone)]
pub struct BenchSummary {
    /// True iff every identity check passed: fused-vs-unfused on every
    /// engine scenario and observed-vs-unobserved results.
    pub identical_results: bool,
    /// Per engine scenario: its name and median per-round
    /// unfused/fused ratio.
    pub fused_speedups: Vec<(&'static str, f64)>,
    /// Span-profiler-on over observability-off wall-clock ratio on the
    /// firewall pipeline — the "cheap enough to leave on" claim
    /// (1.0 = free; `--check-obs` caps this via
    /// `reports/obs_overhead.txt`).
    pub obs_overhead_ratio: f64,
    /// 95% bootstrap CI of the mean per-round diagnosis/off ratio
    /// (reported next to the gated median, not gated).
    pub obs_overhead_ci: BootstrapCi,
    /// 95% bootstrap CI of the mean per-round full/off ratio (reported,
    /// not gated).
    pub full_overhead_ci: BootstrapCi,
}

/// Timed rounds per comparison: rounds are cheap, and enough of them
/// make the median ratio robust to a loaded machine.
fn rounds(quick: bool) -> usize {
    if quick {
        9
    } else {
        11
    }
}

// ---------------------------------------------------------------------
// Interleaved timing, shared by both sections.
// ---------------------------------------------------------------------

/// What [`interleaved`] measured of `N` configurations.
struct Interleaved<T, const N: usize> {
    /// Each configuration's output from the last round.
    outs: [T; N],
    /// Each configuration's fastest round, ms.
    min_ms: [f64; N],
    /// Per round, each configuration's wall time over configuration
    /// 0's in the same round.
    rounds: Vec<[f64; N]>,
}

impl<T, const N: usize> Interleaved<T, N> {
    /// Configuration `k`'s per-round ratios to configuration 0.
    fn ratios(&self, k: usize) -> Vec<f64> {
        self.rounds.iter().map(|r| r[k]).collect()
    }

    /// The median of [`Interleaved::ratios`].
    fn median_ratio(&self, k: usize) -> f64 {
        let mut v = self.ratios(k);
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }
}

/// Times `run(k)` for each configuration `k < N` in interleaved rounds:
/// each round runs every configuration back to back and takes each
/// ratio to configuration 0 *within the round*, so thermal and
/// frequency drift hits both sides of a ratio alike. The order rotates:
/// round r starts at configuration r mod N, so over N rounds each
/// configuration runs once in each slot, and a cost tied to a slot
/// (what the previous run left in the caches, drift across the round)
/// does not land on one side of every ratio. Gate on the median
/// per-round ratio, which one noisy round cannot move the way it moves
/// a ratio of independent minima.
fn interleaved<T, const N: usize>(
    rounds: usize,
    mut run: impl FnMut(usize) -> T,
) -> Interleaved<T, N> {
    // One untimed warm-up round: the first execution pays cold caches
    // and page faults, which would otherwise land entirely on the
    // configuration that runs first.
    let mut outs: [T; N] = std::array::from_fn(&mut run);
    let mut min_ms = [f64::INFINITY; N];
    let mut per_round = Vec::with_capacity(rounds.max(1));
    for round in 0..rounds.max(1) {
        let mut ms = [0.0; N];
        for slot in 0..N {
            let k = (round + slot) % N;
            let clock = WallClock::start();
            let out = run(k);
            ms[k] = clock.elapsed_ms();
            // The clock stopped before the output replaces the last
            // round's, so dropping the old one is never timed.
            outs[k] = out;
        }
        for (min, t) in min_ms.iter_mut().zip(ms) {
            *min = min.min(t);
        }
        per_round.push(ms.map(|t| t / ms[0].max(1e-9)));
    }
    Interleaved { outs, min_ms, rounds: per_round }
}

// ---------------------------------------------------------------------
// Engine scenarios, each against its unfused reference.
// ---------------------------------------------------------------------

struct EngineOutcome {
    json: Json,
    fused_speedup: f64,
    identical_to_unfused: bool,
}

fn engine_scenario(
    name: &str,
    build: impl Fn() -> Engine,
    wl: &WorkloadSpec,
    sim_ns: u64,
    rounds: usize,
) -> EngineOutcome {
    // The unfused reference: every zero-latency hop re-enqueued through
    // the event queue. Must be byte-identical; the wall-clock ratio is
    // what fusion buys on this pipeline shape. A run consumes its
    // engine, so each timed run builds one (microseconds, against runs
    // of milliseconds).
    let timing: Interleaved<_, 2> =
        interleaved(rounds, |k| build().with_fusion(k == 0).run(wl, sim_ns, 0));
    let fused_speedup = timing.median_ratio(1);
    let [r, r_unfused] = &timing.outs;
    let identical_to_unfused = r == r_unfused;
    // Event memory: the hot slot is what the event queue moves per
    // event; each event also holds one cold slab slot, touched only at
    // dispatch. The free-list slab peaks at the live events.
    let slot = (hot_slot_bytes() + cold_slot_bytes()) as f64;
    let json = Json::obj()
        .field("scenario", name)
        .field("sim_ms", sim_ns as f64 / 1e6)
        .field("injected", r.injected)
        .field("total_events", r.total_events)
        .field("peak_live_events", r.peak_live_events)
        .field("slab_peak_kib", r.peak_live_events as f64 * slot / 1024.0)
        .field("rounds", timing.rounds.len())
        .field("wall_ms", timing.min_ms[0])
        .field("unfused_wall_ms", timing.min_ms[1])
        .field("fused_speedup", fused_speedup)
        .field("identical_to_unfused", identical_to_unfused);
    EngineOutcome { json, fused_speedup, identical_to_unfused }
}

fn forward_pipeline() -> Engine {
    Engine::new(vec![
        StageConfig::new("front", 2, 128, Box::new(NfService::host_core(NfChain::empty()))),
        StageConfig::new("back", 1, 128, Box::new(LineRate::new("10G", 10e9))),
    ])
}

fn batch_pipeline() -> Engine {
    Engine::new(vec![StageConfig::new(
        "gpu",
        1,
        4096,
        Box::new(FixedTime::new("gpu-kernel", NfChain::empty(), 30)),
    )
    .with_batching(BatchPolicy::new(64, 50_000, 10_000))])
}

// ---------------------------------------------------------------------
// Observability section: zero-cost off, bounded cost on.
// ---------------------------------------------------------------------

/// What [`obs_section`] measured of the observability cost: the gated
/// median diagnosis/off ratio, and 95% percentile-bootstrap CIs of the
/// mean per-round diagnosis/off and full/off ratios.
struct ObsOverhead {
    ratio: f64,
    ci: BootstrapCi,
    full_ci: BootstrapCi,
}

/// Measures the observability layer against itself:
///
/// - **Zero cost when off.** A plain `Engine::run` and a fully-observed
///   run of the same pipeline must produce equal results — the hooks
///   may not change a single simulated number. Folded into
///   `identical_results`.
/// - **Bounded cost when on.** The firewall deployment is timed three
///   ways: observability off, the diagnosis set (span profiling plus
///   the sim-time metrics ring — the pieces meant to stay on
///   everywhere, gated <5% in CI against `reports/obs_overhead.txt`),
///   and everything on (tracing + telemetry + spans + time series,
///   reported so the cost of a fully-traced run is a number, not a
///   guess).
///
/// Both timed configurations also get a 95% percentile-bootstrap CI of
/// their mean per-round ratio (fixed seeds, so the same timings always
/// give the same interval). The CIs are reported, not gated: they show
/// how far the rounds spread around the gated median.
///
/// The JSON also carries one observed run's telemetry, span profile,
/// scheduler counters, and trace-ring occupancy so `BENCH_simnet.json`
/// documents what the layer sees, not just what it costs.
fn obs_section(quick: bool, all_identical: &mut bool) -> (Json, ObsOverhead) {
    // Zero-cost identity on the engine itself.
    let wl = WorkloadSpec::cbr(8e6, 200, 16, 7);
    let sim_ns: u64 = if quick { 5_000_000 } else { 20_000_000 };
    let plain = forward_pipeline().run(&wl, sim_ns, 0);
    let (observed, _) =
        forward_pipeline().run_observed(&wl, sim_ns, 0, RunObserver::new(&ObsConfig::full()));
    let zero_cost = plain == observed;
    *all_identical &= zero_cost;

    // Enabled overhead on the representative firewall deployment, where
    // per-packet NF work (not hook bookkeeping) dominates.
    let d = baseline_host(2);
    let dwl = saturating_workload(1);
    let run_ns: u64 = if quick { 10_000_000 } else { 20_000_000 };
    // The gated middle configuration is the leave-on diagnosis set:
    // span profiling plus the sim-time metrics ring, both held under
    // the CI ceiling together.
    let configs = [None, Some(ObsConfig::diagnosis()), Some(ObsConfig::full())];
    let timing: Interleaved<_, 3> = interleaved(rounds(quick), |k| match &configs[k] {
        None => (d.run(&dwl, run_ns, 0), None),
        Some(cfg) => {
            let (m, obs) = d.run_observed(&dwl, run_ns, 0, cfg);
            (m, Some(obs))
        }
    });
    let (ratio, full_ratio) = (timing.median_ratio(1), timing.median_ratio(2));
    let ci = bootstrap_mean_ci(&timing.ratios(1), BOOTSTRAP_RESAMPLES, 0x0B5E);
    let full_ci = bootstrap_mean_ci(&timing.ratios(2), BOOTSTRAP_RESAMPLES, 0x0B5F);
    let [off_ms, spans_ms, full_ms] = timing.min_ms;
    let rounds = timing.rounds.len();
    let [(m_off, _), (m_spans, _), (m_on, obs)] = timing.outs;
    let obs = obs.expect("the full configuration is observed");
    let reference = m_off.fingerprint();
    let observed_numbers_identical =
        m_on.fingerprint() == reference && m_spans.fingerprint() == reference;
    *all_identical &= observed_numbers_identical;

    let names: Vec<String> = m_on.stages.iter().map(|s| s.name.to_owned()).collect();
    let telemetry = obs.telemetry.as_ref().map_or_else(Json::obj, |t| t.to_json(&names));
    let spans = obs.spans.as_ref().map_or_else(Json::obj, |s| s.to_json());
    let trace = obs.tracer.as_ref().map_or_else(Json::obj, |t| {
        Json::obj()
            .field("capacity", t.capacity())
            .field("retained", t.len())
            .field("emitted", t.emitted())
            .field("overwritten", t.overwritten())
    });
    let json = Json::obj()
        .field("zero_cost_identical", zero_cost)
        .field("observed_numbers_identical", observed_numbers_identical)
        .field("off_wall_ms", off_ms)
        .field("spans_on_wall_ms", spans_ms)
        .field("overhead_ratio", ratio)
        .field("overhead_ratio_mean", ci.mean)
        .field("overhead_ratio_ci_lo", ci.lo)
        .field("overhead_ratio_ci_hi", ci.hi)
        .field("full_on_wall_ms", full_ms)
        .field("full_overhead_ratio", full_ratio)
        .field("full_overhead_ratio_mean", full_ci.mean)
        .field("full_overhead_ratio_ci_lo", full_ci.lo)
        .field("full_overhead_ratio_ci_hi", full_ci.hi)
        .field("overhead_rounds", rounds)
        .field("bootstrap_resamples", BOOTSTRAP_RESAMPLES)
        .field("trace", trace)
        .field("sched_counters", obs.sched.to_json())
        .field("spans", spans)
        .field("telemetry", telemetry);
    (json, ObsOverhead { ratio, ci, full_ci })
}

/// Runs the micro-benchmark (`quick` shrinks the simulated windows for
/// CI; every identity check still runs in full); returns the
/// `BENCH_simnet.json` value and the summary numbers the gates check.
pub fn run_with_summary(quick: bool) -> (Json, BenchSummary) {
    let engine_sim_ns: u64 = if quick { 10_000_000 } else { 50_000_000 };
    let mut all_identical = true;

    let mut engine_runs = Vec::new();
    let mut fused_speedups = Vec::new();
    for (name, build, wl) in [
        ("forward-2stage", forward_pipeline as fn() -> Engine, WorkloadSpec::cbr(8e6, 200, 16, 7)),
        ("batch-gpu", batch_pipeline as fn() -> Engine, WorkloadSpec::cbr(2e6, 200, 16, 7)),
    ] {
        let out = engine_scenario(name, build, &wl, engine_sim_ns, rounds(quick));
        all_identical &= out.identical_to_unfused;
        fused_speedups.push((name, out.fused_speedup));
        engine_runs.push(out.json);
    }

    let (observability, overhead) = obs_section(quick, &mut all_identical);

    let json = Json::obj()
        .field("bench", "simnet")
        .field("quick", quick)
        .field("hot_slot_bytes", hot_slot_bytes())
        .field("cold_slot_bytes", cold_slot_bytes())
        .field("engine", Json::Arr(engine_runs))
        .field("observability", observability)
        .field("identical_results", all_identical);
    let summary = BenchSummary {
        identical_results: all_identical,
        fused_speedups,
        obs_overhead_ratio: overhead.ratio,
        obs_overhead_ci: overhead.ci,
        full_overhead_ci: overhead.full_ci,
    };
    (json, summary)
}

/// `xp bench`'s own gate: every identity check must hold, and no engine
/// scenario's fused ratio may fall below [`FUSED_SPEEDUP_MIN`]. Returns
/// one message per failure (empty = passed).
pub fn gate(summary: &BenchSummary) -> Vec<String> {
    let mut failures = Vec::new();
    if !summary.identical_results {
        failures.push("identical_results is false: a run diverged from its reference".into());
    }
    for &(scenario, ratio) in &summary.fused_speedups {
        if ratio < FUSED_SPEEDUP_MIN {
            failures.push(format!(
                "{scenario}: fused_speedup {ratio:.3} below the {FUSED_SPEEDUP_MIN} floor — \
                 pipeline fusion made the engine slower"
            ));
        }
    }
    failures
}

/// The reported, never gated, overhead CIs for the `--check-obs` line:
/// the mean per-round diagnosis/off and full/off ratios with their 95%
/// bootstrap CIs.
pub fn overhead_cis(summary: &BenchSummary) -> String {
    let (d, f) = (&summary.obs_overhead_ci, &summary.full_overhead_ci);
    format!(
        "per-round mean {:.3}x, 95% CI [{:.3}, {:.3}]; full {:.3}x, 95% CI [{:.3}, {:.3}]",
        d.mean, d.lo, d.hi, f.mean, f.lo, f.hi
    )
}

/// Checks the observability overhead against a checked-in ceiling file
/// (plain `key value` lines; `#` comments): `obs_overhead_ratio` must
/// not exceed `obs_overhead_max_ratio` (the <5% budget ships as
/// `1.05`). The identity checks are [`gate`]'s.
pub fn check_obs_overhead(summary: &BenchSummary, ceiling_text: &str) -> Vec<String> {
    let mut max_ratio: Option<f64> = None;
    for line in ceiling_text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(key), Some(value)) = (parts.next(), parts.next()) {
            if key == "obs_overhead_max_ratio" {
                max_ratio = value.parse().ok();
            }
        }
    }
    match max_ratio {
        Some(ceiling) if summary.obs_overhead_ratio > ceiling => vec![format!(
            "span-profiler overhead {:.3}x exceeds the {:.3}x ceiling ({})",
            summary.obs_overhead_ratio,
            ceiling,
            overhead_cis(summary)
        )],
        Some(_) => Vec::new(),
        None => vec!["ceiling file lacks obs_overhead_max_ratio".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_has_the_advertised_shape() {
        // One tiny engine run through the same plumbing (the full bench
        // is exercised by `xp bench` itself; keep the test fast).
        let out = engine_scenario(
            "smoke",
            forward_pipeline,
            &WorkloadSpec::cbr(2e6, 200, 4, 1),
            2_000_000,
            3,
        );
        assert!(out.identical_to_unfused, "fused and unfused runs must agree bit-for-bit");
        assert!(out.fused_speedup > 0.0, "the fused ratio must be measured");
        let s = out.json.render();
        for key in [
            "scenario",
            "total_events",
            "peak_live_events",
            "slab_peak_kib",
            "rounds",
            "wall_ms",
            "unfused_wall_ms",
            "fused_speedup",
            "identical_to_unfused",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    fn point_ci(x: f64) -> BootstrapCi {
        BootstrapCi { mean: x, lo: x, hi: x, resamples: 1 }
    }

    fn summary(identical: bool, fused: f64, obs_ratio: f64) -> BenchSummary {
        BenchSummary {
            identical_results: identical,
            fused_speedups: vec![("forward-2stage", 1.3), ("batch-gpu", fused)],
            obs_overhead_ratio: obs_ratio,
            obs_overhead_ci: point_ci(obs_ratio),
            full_overhead_ci: point_ci(obs_ratio),
        }
    }

    #[test]
    fn bench_gate_fails_on_identity_break_and_slow_fusion() {
        assert!(gate(&summary(true, 1.0, 1.0)).is_empty());
        assert!(gate(&summary(true, FUSED_SPEEDUP_MIN, 1.0)).is_empty(), "the floor passes");

        let failures = gate(&summary(false, 1.0, 1.0));
        assert_eq!(failures.len(), 1, "identity break must fail: {failures:?}");
        assert!(failures[0].contains("identical_results"), "{failures:?}");

        let failures = gate(&summary(true, 0.84, 1.0));
        assert_eq!(failures.len(), 1, "a fused ratio under the floor must fail: {failures:?}");
        assert!(failures[0].contains("batch-gpu: fused_speedup 0.840"), "{failures:?}");

        assert_eq!(gate(&summary(false, 0.5, 1.0)).len(), 2, "each failure is reported");
    }

    #[test]
    fn obs_overhead_check_gates_on_the_ceiling() {
        let ceiling = "# observability overhead ceiling\nobs_overhead_max_ratio 1.05\n";
        assert!(check_obs_overhead(&summary(true, 1.0, 1.02), ceiling).is_empty());
        assert_eq!(
            check_obs_overhead(&summary(true, 1.0, 1.20), ceiling).len(),
            1,
            "ratio above the ceiling must fail"
        );
        assert_eq!(
            check_obs_overhead(&summary(true, 1.0, 1.0), "# empty\n").len(),
            1,
            "missing key must fail"
        );
    }

    #[test]
    fn interleaved_rounds_rotate_the_configuration_order() {
        let mut calls = Vec::new();
        let timing: Interleaved<(), 3> =
            interleaved(3, |k| calls.push(["off", "spans", "full"][k]));
        // The untimed warm-up round, then one round starting at each
        // configuration in turn.
        let rounds: Vec<_> = calls.chunks(3).map(|r| r.join(" ")).collect();
        assert_eq!(
            rounds,
            ["off spans full", "off spans full", "spans full off", "full off spans"]
        );
        assert_eq!(timing.rounds.len(), 3);
        assert!(timing.rounds.iter().all(|r| r[0] == 1.0), "ratios are to configuration 0");
    }

    #[test]
    fn obs_section_proves_zero_cost_and_reports_shape() {
        let mut all_identical = true;
        let (json, overhead) = obs_section(true, &mut all_identical);
        let s = json.render();
        assert!(all_identical, "observed runs must not change simulated results");
        assert!(overhead.ratio > 0.0, "overhead ratio must be measured");
        for ci in [&overhead.ci, &overhead.full_ci] {
            assert!(ci.lo <= ci.mean && ci.mean <= ci.hi, "{ci}");
        }
        for key in [
            "zero_cost_identical",
            "observed_numbers_identical",
            "overhead_ratio",
            "overhead_ratio_ci_lo",
            "overhead_ratio_ci_hi",
            "full_overhead_ratio_ci_lo",
            "full_overhead_ratio_ci_hi",
            "trace",
            "sched_counters",
            "spans",
            "telemetry",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
