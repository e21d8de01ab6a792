//! `xp bench`: the in-repo micro-benchmark, replacing the old Criterion
//! benches with a zero-dependency harness.
//!
//! Its sections, emitted as `BENCH_simnet.json`:
//!
//! 1. **Engine memory + speed.** Representative simulations report wall
//!    time, event throughput, and the slab's memory story: the old
//!    grow-forever arena retained one slot per event ever scheduled
//!    (`total_events`), while the free-list slab peaks at the number of
//!    *live* events (`peak_live_events`) — the ratio is the resident-
//!    memory improvement on long runs. Each scenario also runs unfused
//!    (every zero-latency hop re-enqueued); the results must be
//!    identical, and the wall-clock ratio is what fusion buys.
//! 2. **Cross-experiment parallelism.** The same batch of *independent*
//!    measurements runs through `Pool::with_workers(n)` for n in
//!    {1, 2, 4, cores}; each worker count must reproduce the serial
//!    results byte-for-byte (the pool writes results by job index), and
//!    the wall-clock curve is the experiment-pool speedup. This says
//!    nothing about one big run, which always runs on one thread.
//!
//! Wall times take the median of three trials; everything simulated is
//! deterministic, so every other number is exactly reproducible.

use crate::pool::Pool;
use crate::scenarios::{
    baseline_host, faulted, measure_quick, perturbed_workload, saturating_workload,
    smartnic_system, SEVERITY_LADDER,
};
use crate::wallclock::WallClock;
use apples_core::json::Json;
use apples_core::stats::{bootstrap_mean_ci, BootstrapCi};
use apples_obs::{ObsConfig, RunObserver};
use apples_simnet::engine::{
    cold_slot_bytes, hot_slot_bytes, BatchPolicy, Engine, RunResult, StageConfig,
};
use apples_simnet::nf::NfChain;
use apples_simnet::service::{FixedTime, LineRate, NfService};
use apples_simnet::system::Measurement;
use apples_workload::WorkloadSpec;

/// Knobs for a bench run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchOptions {
    /// Shrinks simulated windows and event counts ~10x for the CI
    /// perf-sanity stage. All identity checks still run in full.
    pub quick: bool,
    /// Adds the fault-injection robustness section: faulted runs
    /// replayed, checked serial-vs-parallel, and summarized with
    /// per-severity bootstrap CIs.
    pub faults: bool,
    /// Replications per severity in the robustness section; 0 picks the
    /// default (3 in `--quick` mode, 5 otherwise).
    pub replications: usize,
}

/// One engine scenario's throughput record: the relative-gating data
/// `--export-baseline` dumps so later changes can gate against
/// measured CIs.
#[derive(Debug, Clone)]
pub struct EngineBaseline {
    /// Scenario name (`forward-2stage`, `batch-gpu`).
    pub scenario: String,
    /// Median-trial event throughput, events/second.
    pub events_per_sec: f64,
    /// Deterministic bootstrap CI over the per-trial throughputs.
    pub ci_lo: f64,
    /// Upper bound of the same CI.
    pub ci_hi: f64,
    /// Unfused-over-fused wall-clock ratio (≥1 when fusion helps;
    /// ~1.0 on pipelines with no zero-latency hops to fuse).
    pub fused_speedup: f64,
}

/// The numbers CI gates on, pulled out of the JSON for the baseline
/// and observability gates.
#[derive(Debug, Clone)]
pub struct BenchSummary {
    /// True iff every identity check passed: fused-vs-unfused on every
    /// engine scenario, serial-vs-parallel at every worker count, and
    /// observed-vs-unobserved engine results.
    pub identical_results: bool,
    /// Span-profiler-on over observability-off wall-clock ratio on the
    /// firewall pipeline — the "cheap enough to leave on" claim
    /// (1.0 = free; the CI gate caps this via
    /// `reports/obs_overhead.txt`).
    pub obs_overhead_ratio: f64,
    /// 95% bootstrap CI of the mean per-round diagnosis/off ratio
    /// (reported next to the gated median, not gated).
    pub obs_overhead_ci: BootstrapCi,
    /// 95% bootstrap CI of the mean per-round full/off ratio (reported,
    /// not gated).
    pub full_overhead_ci: BootstrapCi,
    /// Per engine scenario: throughput, CI, fused speedup.
    pub engine_baselines: Vec<EngineBaseline>,
}

fn median_wall_ms<T>(mut run: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(3);
    let mut out = None;
    for _ in 0..3 {
        let clock = WallClock::start();
        out = Some(run());
        times.push(clock.elapsed_ms());
    }
    times.sort_by(f64::total_cmp);
    (out.expect("ran at least once"), times[1])
}

// ---------------------------------------------------------------------
// Engine scenarios, each against its unfused reference.
// ---------------------------------------------------------------------

struct EngineOutcome {
    json: Json,
    baseline: EngineBaseline,
    identical_to_unfused: bool,
}

/// Trials per engine scenario configuration (the bootstrap CI resamples
/// these per-trial throughputs).
const ENGINE_TRIALS: usize = 3;
const BASELINE_RESAMPLES: usize = 200;

/// Runs `engine` `ENGINE_TRIALS` times, returning the (identical)
/// result and every trial's wall time.
fn engine_trials(engine: &mut Engine, wl: &WorkloadSpec, sim_ns: u64) -> (RunResult, Vec<f64>) {
    let mut walls = Vec::with_capacity(ENGINE_TRIALS);
    let mut out = None;
    for _ in 0..ENGINE_TRIALS {
        let clock = WallClock::start();
        out = Some(engine.run(wl, sim_ns, 0));
        walls.push(clock.elapsed_ms());
    }
    (out.expect("ran at least once"), walls)
}

fn median_of(walls: &[f64]) -> f64 {
    let mut sorted = walls.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn engine_scenario(
    name: &str,
    build: impl Fn() -> Engine,
    wl: &WorkloadSpec,
    sim_ns: u64,
) -> EngineOutcome {
    let mut fused_engine = build();
    let (r, walls) = engine_trials(&mut fused_engine, wl, sim_ns);
    // The unfused reference: every zero-latency hop re-enqueued through
    // the event queue. Must be byte-identical; the wall-clock ratio is
    // what fusion buys on this pipeline shape.
    let mut unfused_engine = build().with_fusion(false);
    let (r_unfused, unfused_walls) = engine_trials(&mut unfused_engine, wl, sim_ns);
    let identical_to_unfused = r == r_unfused;
    let wall_ms = median_of(&walls);
    let unfused_wall_ms = median_of(&unfused_walls);
    let fused_speedup = unfused_wall_ms / wall_ms.max(1e-9);
    // SoA memory story: the hot slot is what the event queue moves per
    // event; per-packet events add one cold pool slot touched only at
    // dispatch. The old AoS design paid the whole (hot + cold) footprint
    // inside every bucket entry *and* grew its arena forever.
    let slot = (hot_slot_bytes() + cold_slot_bytes()) as f64;
    let old_arena_bytes = r.total_events as f64 * slot;
    let slab_peak_bytes = r.peak_live_events as f64 * slot;
    let events_per_sec = r.total_events as f64 / (wall_ms / 1e3);
    let samples: Vec<f64> =
        walls.iter().map(|w| r.total_events as f64 / (w / 1e3).max(1e-9)).collect();
    let ci = bootstrap_mean_ci(&samples, BASELINE_RESAMPLES, 0xE7E7);
    let json = Json::obj()
        .field("scenario", name)
        .field("sim_ms", sim_ns as f64 / 1e6)
        .field("injected", r.injected)
        .field("total_events", r.total_events)
        .field("peak_live_events", r.peak_live_events)
        .field("old_arena_kib", old_arena_bytes / 1024.0)
        .field("slab_peak_kib", slab_peak_bytes / 1024.0)
        .field("memory_ratio", old_arena_bytes / slab_peak_bytes.max(1.0))
        .field("wall_ms", wall_ms)
        .field("events_per_sec", events_per_sec)
        .field("events_per_sec_ci_lo", ci.lo)
        .field("events_per_sec_ci_hi", ci.hi)
        .field("unfused_wall_ms", unfused_wall_ms)
        .field("fused_speedup", fused_speedup)
        .field("identical_to_unfused", identical_to_unfused);
    EngineOutcome {
        json,
        baseline: EngineBaseline {
            scenario: name.to_owned(),
            events_per_sec,
            ci_lo: ci.lo,
            ci_hi: ci.hi,
            fused_speedup,
        },
        identical_to_unfused,
    }
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
// Cross-experiment parallelism: the measurement batch at each worker
// count. This scales the *pool of independent experiments*, not a
// single run — a lone big scenario gains nothing here.
// ---------------------------------------------------------------------

fn harness_jobs() -> Vec<u64> {
    (0..8).collect()
}

fn run_harness_batch(pool: &Pool) -> Vec<String> {
    // Alternate deployments so jobs are unevenly sized (exercises the
    // stealing path on multi-core machines).
    pool.map(harness_jobs(), |seed| {
        let wl = saturating_workload(seed);
        let m = if seed % 2 == 0 {
            measure_quick(&baseline_host(2), &wl)
        } else {
            measure_quick(&smartnic_system(), &wl)
        };
        m.fingerprint()
    })
}

/// The sweep's worker counts: {1, 2, 4, machine parallelism}, deduped
/// and sorted so the curve is monotone in n even on small machines.
fn sweep_worker_counts() -> Vec<usize> {
    let machine = Pool::new().workers();
    let mut counts = vec![1, 2, 4, machine];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn harness_sweep(all_identical: &mut bool) -> Json {
    let counts = sweep_worker_counts();
    let mut serial_out: Option<Vec<String>> = None;
    let mut serial_ms = 0.0f64;
    let entries = counts
        .into_iter()
        .map(|n| {
            let pool = Pool::with_workers(n);
            let (out, wall_ms) = median_wall_ms(|| run_harness_batch(&pool));
            let identical = match &serial_out {
                None => {
                    serial_out = Some(out);
                    serial_ms = wall_ms;
                    true // n = 1 defines the reference
                }
                Some(reference) => *reference == out,
            };
            *all_identical &= identical;
            Json::obj()
                .field("workers", n)
                .field("wall_ms", wall_ms)
                .field("speedup", serial_ms / wall_ms.max(1e-9))
                .field("identical_results", identical)
        })
        .collect();
    Json::obj()
        .field("jobs", harness_jobs().len())
        .field("machine_workers", Pool::new().workers())
        .field("serial_wall_ms", serial_ms)
        .field("cross_experiment_parallelism", Json::Arr(entries))
}

// ---------------------------------------------------------------------
// Robustness section: faulted runs must stay deterministic too.
// ---------------------------------------------------------------------

/// One faulted measurement of the SmartNIC system.
fn faulted_run(seed: u64, severity: f64) -> Measurement {
    let wl = perturbed_workload(120.0, seed, severity);
    measure_quick(&faulted(smartnic_system(), severity), &wl)
}

/// Per-severity robustness entries: `replications` faulted measurements
/// per severity, run serially and on the machine-size pool (which must
/// agree bit-for-bit), replayed once (which must also agree), and
/// summarized with a deterministic bootstrap CI on throughput.
fn robustness_section(replications: usize, all_identical: &mut bool) -> Json {
    // The shared ladder minus its clean rung: severity 0 is the
    // baseline every other bench section already measures.
    let entries = SEVERITY_LADDER
        .iter()
        .filter(|&&(_, s)| s > 0.0)
        .map(|&(name, s)| {
            let seeds: Vec<u64> = (0..replications as u64).map(|i| 301 + i).collect();
            let serial = Pool::with_workers(1).map(seeds.clone(), |seed| faulted_run(seed, s));
            let reference: Vec<String> = serial.iter().map(Measurement::fingerprint).collect();
            let pooled = Pool::new().map(seeds.clone(), |seed| faulted_run(seed, s).fingerprint());
            let parallel_identical = pooled == reference;
            let replayed =
                Pool::with_workers(1).map(seeds, |seed| faulted_run(seed, s).fingerprint());
            let replay_identical = replayed == reference;
            *all_identical &= parallel_identical && replay_identical;
            let gbps: Vec<f64> = serial.iter().map(|m| m.throughput_bps / 1e9).collect();
            let ci = bootstrap_mean_ci(&gbps, 300, 0xB007);
            let fault_drops: u64 = serial.iter().map(|m| m.fault_drops + m.injected_drops).sum();
            Json::obj()
                .field("severity", name)
                .field("replications", replications)
                .field("gbps_mean", ci.mean)
                .field("gbps_ci_lo", ci.lo)
                .field("gbps_ci_hi", ci.hi)
                .field("bootstrap_resamples", ci.resamples)
                .field("fault_drops", fault_drops)
                .field("serial_parallel_identical", parallel_identical)
                .field("replay_identical", replay_identical)
        })
        .collect();
    Json::Arr(entries)
}

// ---------------------------------------------------------------------
// Observability section: zero-cost off, bounded cost on.
// ---------------------------------------------------------------------

/// Interleaved overhead timing: each round runs the three
/// configurations back-to-back and computes the two overhead ratios
/// *within the round*, so thermal/frequency drift hits both sides of
/// each ratio equally. The order rotates: round r starts at
/// configuration r mod 3 (off, spans, full), so in every three rounds
/// each configuration runs first, second and last once, and a cost
/// tied to a slot in the round (what the previous run left in the
/// caches, drift across the round) does not land on one side of every
/// ratio. The per-configuration wall times reported are running
/// minima, and the gated ratios are the medians of the per-round
/// ratios — robust to a single noisy round in a way that
/// min-of-independent-blocks is not.
struct OverheadTiming<A, B, C> {
    outs: (A, B, C),
    min_ms: [f64; 3],
    /// Per-round (spans/off, full/off) ratios, in round order.
    rounds: (Vec<f64>, Vec<f64>),
}

impl<A, B, C> OverheadTiming<A, B, C> {
    /// The (spans/off, full/off) medians across rounds.
    fn ratios(&self) -> (f64, f64) {
        let median = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        (median(&self.rounds.0), median(&self.rounds.1))
    }
}

fn interleaved_overhead<A, B, C>(
    trials: usize,
    mut off: impl FnMut() -> A,
    mut spans: impl FnMut() -> B,
    mut full: impl FnMut() -> C,
) -> OverheadTiming<A, B, C> {
    let mut min_ms = [f64::INFINITY; 3];
    let mut spans_ratios = Vec::new();
    let mut full_ratios = Vec::new();
    // One untimed warmup round: the first execution pays cold caches and
    // page faults for all three configurations, which would otherwise
    // land entirely on `off` and skew every ratio of the first round.
    let mut outs = (off(), spans(), full());
    // The clock stops before the output replaces the last round's, so
    // dropping the old one is never timed.
    fn timed<T>(run: &mut impl FnMut() -> T) -> (T, f64) {
        let c = WallClock::start();
        let out = run();
        (out, c.elapsed_ms())
    }
    for round in 0..trials.max(1) {
        let mut ms = [0.0; 3];
        for slot in 0..3 {
            match (round + slot) % 3 {
                0 => (outs.0, ms[0]) = timed(&mut off),
                1 => (outs.1, ms[1]) = timed(&mut spans),
                _ => (outs.2, ms[2]) = timed(&mut full),
            }
        }
        for (min, t) in min_ms.iter_mut().zip(ms) {
            *min = min.min(t);
        }
        spans_ratios.push(ms[1] / ms[0].max(1e-9));
        full_ratios.push(ms[2] / ms[0].max(1e-9));
    }
    OverheadTiming { outs, min_ms, rounds: (spans_ratios, full_ratios) }
}

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
///   run of the same pipeline must produce equal [`RunResult`]s — the
///   hooks may not change a single simulated number. Folded into
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
    let mut observed_engine =
        forward_pipeline().with_observer(RunObserver::new(&ObsConfig::full()));
    let observed = observed_engine.run(&wl, sim_ns, 0);
    let zero_cost = plain == observed;
    *all_identical &= zero_cost;

    // Enabled overhead on the representative firewall deployment, where
    // per-packet NF work (not hook bookkeeping) dominates.
    let d = baseline_host(2);
    let dwl = saturating_workload(1);
    let run_ns: u64 = if quick { 10_000_000 } else { 20_000_000 };
    // Rounds are cheap (three short runs each); enough of them makes
    // the median ratio robust to a loaded machine.
    let trials = if quick { 9 } else { 11 };
    // The gated middle configuration is the leave-on diagnosis set:
    // span profiling plus the sim-time metrics ring, both held under
    // the CI ceiling together.
    let diagnosis = ObsConfig::diagnosis();
    let timing = interleaved_overhead(
        trials,
        || d.run(&dwl, run_ns, 0),
        || d.run_observed(&dwl, run_ns, 0, &diagnosis),
        || d.run_observed(&dwl, run_ns, 0, &ObsConfig::full()),
    );
    let (ratio, full_ratio) = timing.ratios();
    let rounds = timing.rounds.0.len();
    let ci = bootstrap_mean_ci(&timing.rounds.0, BASELINE_RESAMPLES, 0x0B5E);
    let full_ci = bootstrap_mean_ci(&timing.rounds.1, BASELINE_RESAMPLES, 0x0B5F);
    let (m_off, (m_spans, _), (m_on, obs)) = timing.outs;
    let [off_ms, spans_ms, full_ms] = timing.min_ms;
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
        .field("bootstrap_resamples", BASELINE_RESAMPLES)
        .field("trace", trace)
        .field("sched_counters", obs.sched.to_json())
        .field("spans", spans)
        .field("telemetry", telemetry);
    (json, ObsOverhead { ratio, ci, full_ci })
}

/// The `experiment_store` section: cold-vs-warm wall clock for the
/// content-addressed experiment store (DESIGN.md §13). Each cold trial
/// wipes the store and executes a representative experiment subset;
/// each warm trial replays the same subset from cache. Per-trial wall
/// times get bootstrap CIs; the warm pass must be 100% hits with
/// output byte-identical to the cold pass (folded into
/// `identical_results`).
fn experiment_store_section(quick: bool, all_identical: &mut bool) -> Json {
    use crate::xpall::{run_all, XpAllOptions};
    let ids: &[&str] = if quick {
        &["fig1a", "ex42", "robustness-verdict"]
    } else {
        &["table1", "fig1a", "fig2", "ex42", "telemetry", "robustness-verdict"]
    };
    let store_root =
        std::env::temp_dir().join(format!("apples-store-bench-{}", std::process::id()));
    let mut opts = XpAllOptions::for_ids(ids.iter().map(|s| (*s).to_string()).collect());
    opts.store_root = store_root.clone();

    let trials = if quick { 3 } else { 5 };
    let mut cold_ms = Vec::with_capacity(trials);
    let mut warm_ms = Vec::with_capacity(trials);
    let mut identical = true;
    let mut warm_hit_rate = 0.0;
    for _ in 0..trials {
        let _ = std::fs::remove_dir_all(&store_root);
        let clock = WallClock::start();
        let cold = run_all(&opts).expect("bench subset runs");
        cold_ms.push(clock.elapsed_ms());
        let clock = WallClock::start();
        let warm = run_all(&opts).expect("bench subset replays");
        warm_ms.push(clock.elapsed_ms());
        identical &= warm.stdout == cold.stdout;
        identical &= warm.stats.hit == warm.stats.nodes && warm.stats.executed.is_empty();
        warm_hit_rate = warm.stats.hit as f64 / warm.stats.nodes.max(1) as f64;
    }
    let _ = std::fs::remove_dir_all(&store_root);
    *all_identical &= identical;

    let cold_ci = bootstrap_mean_ci(&cold_ms, BASELINE_RESAMPLES, 0x57CD);
    let warm_ci = bootstrap_mean_ci(&warm_ms, BASELINE_RESAMPLES, 0x57CE);
    Json::obj()
        .field("experiments", ids.len() as f64)
        .field("trials", trials as f64)
        .field("cold_wall_ms", cold_ci.mean)
        .field("cold_wall_ms_ci_lo", cold_ci.lo)
        .field("cold_wall_ms_ci_hi", cold_ci.hi)
        .field("warm_wall_ms", warm_ci.mean)
        .field("warm_wall_ms_ci_lo", warm_ci.lo)
        .field("warm_wall_ms_ci_hi", warm_ci.hi)
        .field("warm_speedup", cold_ci.mean / warm_ci.mean.max(1e-9))
        .field("warm_hit_rate", warm_hit_rate)
        .field("warm_identical_to_cold", identical)
}

/// Runs the micro-benchmark; returns the `BENCH_simnet.json` value and
/// the summary numbers the CI gates check.
pub fn run_with_summary(opts: &BenchOptions) -> (Json, BenchSummary) {
    let engine_sim_ns: u64 = if opts.quick { 10_000_000 } else { 50_000_000 };
    let mut all_identical = true;

    let mut engine_runs = Vec::new();
    let mut engine_baselines = Vec::new();
    for (name, build, wl) in [
        ("forward-2stage", forward_pipeline as fn() -> Engine, WorkloadSpec::cbr(8e6, 200, 16, 7)),
        ("batch-gpu", batch_pipeline as fn() -> Engine, WorkloadSpec::cbr(2e6, 200, 16, 7)),
    ] {
        let out = engine_scenario(name, build, &wl, engine_sim_ns);
        all_identical &= out.identical_to_unfused;
        engine_baselines.push(out.baseline);
        engine_runs.push(out.json);
    }

    let harness = harness_sweep(&mut all_identical);
    let (observability, overhead) = obs_section(opts.quick, &mut all_identical);
    let experiment_store = experiment_store_section(opts.quick, &mut all_identical);

    let mut json = Json::obj()
        .field("bench", "simnet")
        .field("quick", opts.quick)
        .field("hot_slot_bytes", hot_slot_bytes())
        .field("cold_slot_bytes", cold_slot_bytes())
        .field("engine", Json::Arr(engine_runs))
        .field("harness", harness)
        .field("observability", observability)
        .field("experiment_store", experiment_store);
    if opts.faults {
        let replications = match opts.replications {
            0 if opts.quick => 3,
            0 => 5,
            n => n,
        };
        json = json.field("robustness", robustness_section(replications, &mut all_identical));
    }
    let json = json.field("identical_results", all_identical);
    let summary = BenchSummary {
        identical_results: all_identical,
        obs_overhead_ratio: overhead.ratio,
        obs_overhead_ci: overhead.ci,
        full_overhead_ci: overhead.full_ci,
        engine_baselines,
    };
    (json, summary)
}

/// The `--export-baseline` payload: per-scenario throughput with its
/// bootstrap CI, consumed by `--baseline` to gate *relatively* ("no
/// worse than the recorded CI lower bound shrunk by `max_drop`").
pub fn baseline_json(summary: &BenchSummary, quick: bool) -> Json {
    let entries = summary
        .engine_baselines
        .iter()
        .map(|b| {
            Json::obj()
                .field("scenario", b.scenario.as_str())
                .field("events_per_sec", b.events_per_sec)
                .field("events_per_sec_ci_lo", b.ci_lo)
                .field("events_per_sec_ci_hi", b.ci_hi)
                .field("fused_speedup", b.fused_speedup)
        })
        .collect();
    Json::obj()
        .field("baseline", "simnet-engine")
        .field("quick", quick)
        .field("bootstrap_resamples", BASELINE_RESAMPLES)
        .field("defaults", Json::obj().field("max_drop", crate::baseline::DEFAULT_MAX_DROP))
        .field("engine", Json::Arr(entries))
}

/// Runs the micro-benchmark and returns the `BENCH_simnet.json` value.
pub fn run() -> Json {
    run_with_summary(&BenchOptions::default()).0
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
/// (plain `key value` lines; `#` comments). Gates:
///
/// - `identical_results` must be true (the zero-cost and
///   observed-numbers identity checks fold into it);
/// - `obs_overhead_ratio` must not exceed `obs_overhead_max_ratio`
///   from the ceiling file (the <5% budget ships as `1.05`).
pub fn check_obs_overhead(summary: &BenchSummary, ceiling_text: &str) -> Vec<String> {
    let mut failures = Vec::new();
    if !summary.identical_results {
        failures.push("identical_results is false: observability changed simulated results".into());
    }
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
        Some(ceiling) => {
            if summary.obs_overhead_ratio > ceiling {
                failures.push(format!(
                    "span-profiler overhead {:.3}x exceeds the {:.3}x ceiling ({})",
                    summary.obs_overhead_ratio,
                    ceiling,
                    overhead_cis(summary)
                ));
            }
        }
        None => failures.push("ceiling file lacks obs_overhead_max_ratio".into()),
    }
    failures
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
        );
        assert!(out.identical_to_unfused, "fused and unfused runs must agree bit-for-bit");
        let s = out.json.render();
        for key in [
            "scenario",
            "total_events",
            "peak_live_events",
            "memory_ratio",
            "wall_ms",
            "events_per_sec_ci_lo",
            "events_per_sec_ci_hi",
            "fused_speedup",
            "identical_to_unfused",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn serial_and_pooled_harness_batches_are_identical() {
        let a = run_harness_batch(&Pool::with_workers(1));
        let b = run_harness_batch(&Pool::with_workers(4));
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_worker_counts_cover_serial_and_machine() {
        let counts = sweep_worker_counts();
        assert_eq!(counts.first(), Some(&1));
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "not strictly increasing: {counts:?}");
        assert!(counts.contains(&Pool::new().workers()));
    }

    #[test]
    fn robustness_section_reports_identity_and_cis() {
        let mut all_identical = true;
        let s = robustness_section(2, &mut all_identical).render();
        assert!(all_identical, "faulted runs must be serial/parallel- and replay-identical");
        for key in [
            "severity",
            "replications",
            "gbps_ci_lo",
            "gbps_ci_hi",
            "bootstrap_resamples",
            "serial_parallel_identical",
            "replay_identical",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        assert!(s.contains("severe"), "{s}");
    }

    #[test]
    fn faulted_digests_replay_bit_for_bit() {
        let fingerprint = |severity| faulted_run(301, severity).fingerprint();
        assert_eq!(fingerprint(1.0), fingerprint(1.0));
        assert_ne!(fingerprint(0.0), fingerprint(1.0), "faults must bite");
    }

    fn point_ci(x: f64) -> BootstrapCi {
        BootstrapCi { mean: x, lo: x, hi: x, resamples: 1 }
    }

    fn summary(identical: bool, obs_ratio: f64) -> BenchSummary {
        BenchSummary {
            identical_results: identical,
            obs_overhead_ratio: obs_ratio,
            obs_overhead_ci: point_ci(obs_ratio),
            full_overhead_ci: point_ci(obs_ratio),
            engine_baselines: Vec::new(),
        }
    }

    fn baseline(scenario: &str, fused_speedup: f64) -> EngineBaseline {
        EngineBaseline {
            scenario: scenario.to_owned(),
            events_per_sec: 10e6,
            ci_lo: 9e6,
            ci_hi: 11e6,
            fused_speedup,
        }
    }

    #[test]
    fn baseline_json_exports_per_scenario_cis() {
        let mut s = summary(true, 1.0);
        s.engine_baselines = vec![baseline("forward-2stage", 1.5)];
        let rendered = baseline_json(&s, true).render();
        for key in [
            "baseline",
            "bootstrap_resamples",
            "forward-2stage",
            "events_per_sec_ci_lo",
            "events_per_sec_ci_hi",
            "fused_speedup",
        ] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
    }

    #[test]
    fn obs_overhead_check_gates_on_ceiling_and_identity() {
        let ceiling = "# observability overhead ceiling\nobs_overhead_max_ratio 1.05\n";
        assert!(check_obs_overhead(&summary(true, 1.02), ceiling).is_empty());
        assert_eq!(
            check_obs_overhead(&summary(true, 1.20), ceiling).len(),
            1,
            "ratio above the ceiling must fail"
        );
        assert_eq!(
            check_obs_overhead(&summary(false, 1.0), ceiling).len(),
            1,
            "identity break must fail"
        );
        assert_eq!(
            check_obs_overhead(&summary(true, 1.0), "# empty\n").len(),
            1,
            "missing key must fail"
        );
    }

    #[test]
    fn overhead_rounds_rotate_the_configuration_order() {
        #[expect(
            clippy::disallowed_types,
            reason = "the three closures run one after another on this thread; the cell records their order"
        )]
        let calls = std::cell::RefCell::new(Vec::new());
        interleaved_overhead(
            3,
            || calls.borrow_mut().push("off"),
            || calls.borrow_mut().push("spans"),
            || calls.borrow_mut().push("full"),
        );
        // The untimed warm-up round, then one round starting at each
        // configuration in turn.
        let rounds: Vec<_> = calls.into_inner().chunks(3).map(|r| r.join(" ")).collect();
        assert_eq!(
            rounds,
            ["off spans full", "off spans full", "spans full off", "full off spans"]
        );
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
