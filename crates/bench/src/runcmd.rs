//! `xp run`: run one registered scenario with diagnostics attached, and
//! check bit for bit that attaching them changed no simulated number.
//!
//! Every invocation measures one `(scenario, severity, seed)` at one
//! operating point — [`RUN_GBPS`] offered over [`RUN_NS`], with
//! [`WARMUP_NS`] excluded — in two runs:
//!
//! 1. the reference: unobserved;
//! 2. the observed run, with telemetry, spans and the time series, plus
//!    the trace ring when tracing.
//!
//! Run 2 must match the reference's [`Measurement::fingerprint`];
//! otherwise the CLI exits 1. Run 2 yields the artifacts: the Chrome
//! trace (sim-time timestamps only, so repeat runs export the same
//! bytes), the folded-stack profile of the engine phases in flamegraph
//! "collapsed" format (`engine;...`), and the summary.

use crate::scenarios::{faulted, perturbed_workload, scenario, to_gbps, RUN_NS, WARMUP_NS};
use apples_obs::chrome::chrome_trace;
use apples_obs::{ObsConfig, Phase, RunObserver, TraceDrop, TraceFault, TraceKind, Tracer};
use apples_simnet::system::Measurement;

/// Offered load for every `xp run`, Gbps — the operating point the
/// verdict experiments judge at, and the one the golden trace's
/// provenance digest pins.
pub const RUN_GBPS: f64 = 120.0;

/// Options for one `xp run` invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Scenario id (see [`crate::scenarios::SCENARIOS`]).
    pub scenario: String,
    /// Fault-ladder severity in `[0, 1]`; 0 runs clean.
    pub severity: f64,
    /// Workload seed.
    pub seed: u64,
    /// Trace ring bound — the file keeps the last `ring` events; `None`
    /// runs untraced.
    pub trace_ring: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { scenario: "smartnic".to_owned(), severity: 0.0, seed: 1, trace_ring: None }
    }
}

/// One `xp run`'s artifacts and verdict.
#[derive(Debug)]
pub struct RunArtifacts {
    /// Chrome `trace_event` JSON, pretty-rendered (byte-stable); `None`
    /// when untraced.
    pub chrome_json: Option<String>,
    /// Folded-stack profile (flamegraph collapsed format).
    pub folded: String,
    /// Human-readable summary.
    pub summary: String,
    /// Whether the observed run matched the reference bit for bit.
    pub passed: bool,
}

/// Makes the runs and renders the artifacts. Returns `None` for an
/// unknown scenario id.
pub fn run(opts: &RunOptions) -> Option<RunArtifacts> {
    let d = faulted(scenario(&opts.scenario)?, opts.severity);
    let wl = perturbed_workload(RUN_GBPS, opts.seed, opts.severity);
    let reference = d.run(&wl, RUN_NS, WARMUP_NS);
    let trace_capacity = opts.trace_ring.map_or(0, |ring| ring.max(1));
    let observer = ObsConfig { trace_capacity, ..ObsConfig::full() };
    let (measurement, obs) = d.run_observed(&wl, RUN_NS, WARMUP_NS, &observer);
    let passed = measurement.fingerprint() == reference.fingerprint();

    let names: Vec<String> = reference.stages.iter().map(|s| s.name.to_owned()).collect();
    let chrome_json = obs.tracer.as_ref().map(|tracer| {
        let prov = d.provenance(&wl, RUN_NS, WARMUP_NS);
        chrome_trace(tracer, &names, &prov).render_pretty()
    });
    let folded = obs.spans.as_ref().map_or_else(String::new, |spans| spans.to_folded("engine"));
    let summary = summarize(opts, &names, &measurement, &obs, passed);
    Some(RunArtifacts { chrome_json, folded, summary, passed })
}

fn summarize(
    opts: &RunOptions,
    names: &[String],
    measurement: &Measurement,
    obs: &RunObserver,
    passed: bool,
) -> String {
    let mut out = format!(
        "run: {} (severity {}, seed {}, {RUN_GBPS} Gbps offered)\n",
        opts.scenario, opts.severity, opts.seed
    );
    out.push_str(&format!(
        "  throughput: {:.3} Gbps delivered\n",
        to_gbps(measurement.throughput_bps)
    ));
    if let Some(tel) = obs.telemetry.as_ref() {
        // Counts come from the engine's stage reports, distributions
        // from telemetry; both are index-aligned with `names`.
        let stages = &measurement.stages;
        if let Some(i) = tel.busiest_stage() {
            out.push_str(&format!("  busiest stage: {} ({} served)\n", names[i], stages[i].served));
        }
        if let Some(i) = tel.deepest_queue() {
            out.push_str(&format!(
                "  deepest queue: {} (peak depth {})\n",
                names[i],
                tel.stages[i].depth.max()
            ));
        }
        // Top-N stages by packets served.
        let mut order: Vec<usize> = (0..stages.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(stages[i].served), i));
        out.push_str("  top stages by served:\n");
        out.push_str(&format!(
            "    {:<12} {:>10} {:>8} {:>10} {:>12} {:>12}\n",
            "stage", "served", "drops", "peak_depth", "wait_p99_ns", "svc_p99_ns"
        ));
        for &i in order.iter().take(5) {
            let (st, t) = (&stages[i], &tel.stages[i]);
            out.push_str(&format!(
                "    {:<12} {:>10} {:>8} {:>10} {:>12} {:>12}\n",
                names[i],
                st.served,
                st.drops(),
                t.depth.max(),
                t.wait_ns.quantile(0.99),
                t.service_ns.quantile(0.99)
            ));
        }
    }
    if let Some(spans) = obs.spans.as_ref() {
        out.push_str("  engine phases (est self wall):\n");
        for ph in Phase::ALL {
            let p = spans.phase(ph);
            out.push_str(&format!(
                "    {:<14} {:>10} spans {:>12.0} us\n",
                ph.label(),
                p.count,
                p.est_wall_ns() / 1e3
            ));
        }
    }
    if let Some(ts) = obs.timeseries.as_ref() {
        let (peak_idx, peak) = ts.peak_interval().unwrap_or((0, 0));
        out.push_str(&format!(
            "  timeseries: {} intervals of {:.3} ms, peak {} dispatches at interval {}\n",
            ts.len(),
            ts.interval_ns() as f64 / 1e6,
            peak,
            peak_idx
        ));
    }
    if let Some(tracer) = obs.tracer.as_ref() {
        out.push_str(&format!(
            "  ring: emitted={} retained={} overwritten={}\n",
            tracer.emitted(),
            tracer.len(),
            tracer.overwritten()
        ));
        out.push_str(&fault_to_drop_gap(tracer));
    }
    if passed {
        out.push_str("  verdict: observed run bit-identical to the unobserved reference\n");
    } else {
        out.push_str("  verdict: FAILED — the observed run diverged from the reference\n");
    }
    out
}

/// The retained-window gap between the first fault action and the first
/// fault-attributed loss — how long the system absorbed the fault before
/// packets started dying.
fn fault_to_drop_gap(tracer: &Tracer) -> String {
    // From the first fault action on; an injected drop is both a fault
    // action and a fault-attributed loss.
    let mut from_fault =
        tracer.events().skip_while(|ev| !matches!(ev.kind, TraceKind::Fault { .. })).peekable();
    let first_fault = from_fault.peek().map(|ev| ev.t_ns);
    let first_loss = from_fault.find(|ev| {
        matches!(
            ev.kind,
            TraceKind::Fault { fault: TraceFault::InjectedDrop, .. }
                | TraceKind::Drop { reason: TraceDrop::Fault, .. }
        )
    });
    match (first_fault, first_loss.map(|ev| ev.t_ns)) {
        (Some(f), Some(l)) => {
            format!("  first fault -> first fault-loss gap: {} ns\n", l.saturating_sub(f))
        }
        (Some(_), None) => "  faults traced, no fault-attributed loss in window\n".to_owned(),
        (None, _) => "  no faults traced (clean run)\n".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apples_obs::observer::DEFAULT_TRACE_CAPACITY;

    /// Runs `opts`, which must pass and emit well-formed folded stacks.
    fn run_ok(opts: RunOptions) -> RunArtifacts {
        let out = run(&opts).expect("registered scenario");
        assert!(out.passed, "{}", out.summary);
        assert!(!out.folded.is_empty(), "profile emitted no stacks");
        for line in out.folded.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("line has a value");
            assert!(!stack.is_empty() && !stack.contains(' '), "bad stack: {line}");
            assert!(value.parse::<u64>().is_ok(), "bad value: {line}");
        }
        out
    }

    /// `summary` minus the engine-phase block (wall-clock estimates):
    /// every line left is a sim-time figure.
    fn sim_time_lines(summary: &str) -> Vec<&str> {
        let mut in_phases = false;
        let keep = |line: &&str| {
            if !line.starts_with("    ") {
                in_phases = line.starts_with("  engine phases");
            }
            !in_phases
        };
        summary.lines().filter(keep).collect()
    }

    #[test]
    fn unknown_scenario_is_none() {
        let opts = RunOptions { scenario: "nope".to_owned(), ..RunOptions::default() };
        assert!(run(&opts).is_none());
    }

    #[test]
    fn repeat_traced_runs_export_identical_files() {
        let traced = RunOptions {
            scenario: "base-2c".to_owned(),
            severity: 0.5,
            trace_ring: Some(DEFAULT_TRACE_CAPACITY),
            ..RunOptions::default()
        };
        let (a, b) = (run_ok(traced.clone()), run_ok(traced.clone()));
        let trace = a.chrome_json.expect("traced");
        assert_eq!(Some(&trace), b.chrome_json.as_ref(), "repeat traces must match");
        // The whole-run telemetry (busiest stage, peak depths, p99 wait
        // and service, ring counts, fault gap) must match too; only the
        // wall-clock engine phases may differ.
        let (a, b) = (sim_time_lines(&a.summary), sim_time_lines(&b.summary));
        assert!(a.iter().any(|l| l.contains("ring: emitted=")), "{a:#?}");
        assert_eq!(a, b, "repeat summaries must agree on every sim-time line");
        let clean = run_ok(RunOptions { severity: 0.0, ..traced });
        assert!(clean.summary.contains("no faults traced"), "{}", clean.summary);
    }

    #[test]
    fn faulted_run_names_the_fault_gap_and_nests_fault_apply() {
        let out = run_ok(RunOptions {
            severity: 1.0,
            trace_ring: Some(DEFAULT_TRACE_CAPACITY),
            ..RunOptions::default()
        });
        for needle in ["busiest stage", "deepest queue", "first fault", "top stages by served"] {
            assert!(out.summary.contains(needle), "missing {needle:?} in:\n{}", out.summary);
        }
        assert!(out.folded.contains("engine;dispatch;fault-apply "), "{}", out.folded);
    }

    #[test]
    fn observed_runs_match_the_reference() {
        let serial = run_ok(RunOptions::default());
        assert!(serial.folded.contains("engine;dispatch"), "{}", serial.folded);
        assert!(serial.chrome_json.is_none(), "an untraced run exports no trace");
        for opts in [
            RunOptions { scenario: "rss".to_owned(), ..RunOptions::default() },
            RunOptions { scenario: "base-2c".to_owned(), severity: 0.5, ..RunOptions::default() },
        ] {
            run_ok(opts);
        }
    }
}
