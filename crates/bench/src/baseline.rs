//! `xp bench --baseline FILE [--strict]`: the comparison half of
//! relative perf gating (the export half shipped with
//! `--export-baseline`).
//!
//! Each scenario is gated against the *measured* baseline: the
//! recorded bootstrap CI on events/second, shrunk by a relative
//! `max_drop` allowance. A scenario regresses when its current CI upper
//! bound falls below the baseline CI lower bound scaled by
//! `(1 - max_drop)` — i.e. when even the most favorable reading of
//! today's run cannot overlap the most conservative reading of the
//! recorded run after the allowance. Interval overlap, not
//! point-estimate comparison, per the statistical-evaluation playbook:
//! two noisy medians an epsilon apart must not flip a gate.
//!
//! The allowance is resolved per scenario with explicit precedence:
//! a per-entry `max_drop` override beats an explicit `--max-drop` flag,
//! which beats the file-level `defaults.max_drop`, which beats
//! [`DEFAULT_MAX_DROP`]. An entry may also carry an absolute
//! `min_floor` (events/second) — a hand-set safety net that holds even
//! when repeated re-exports would otherwise let the relative baseline
//! drift downward one tolerated notch at a time.
//!
//! Exit-code taxonomy (what `scripts/ci.sh` and humans key on):
//! - `0` — every scenario within the gate (or `--strict` absent).
//! - `2` — at least one scenario regressed and `--strict` was given.
//! - `3` — the baseline file does not exist.
//! - `4` — the baseline file exists but cannot be parsed.

use crate::microbench::{BenchSummary, EngineBaseline};

/// Relative drop allowed before a scenario counts as regressed.
/// Deliberately loose: wall-clock noise on shared CI runners is real,
/// and the CI-overlap rule already absorbs run-to-run variance.
pub const DEFAULT_MAX_DROP: f64 = 0.15;

/// Fusion must never cost throughput. The gate tolerates 15% of
/// measurement noise because pipelines with nothing to fuse (batch-gpu
/// is a single stage, so no zero-latency hops exist) measure ~1.0 and
/// would flake on an exact `>= 1.0` bound — and on shared/virtualized
/// CI hosts the median-of-3 ratio of two short runs still jitters by
/// ~10%. The gate exists to catch fusion *pessimizations* (a real bug
/// lands well below 0.85), not to certify a precise ratio.
pub(crate) const FUSED_SPEEDUP_MIN: f64 = 0.85;

/// One recorded scenario from a `--export-baseline` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Scenario name (`forward-2stage`, `batch-gpu`); unique per file.
    pub scenario: String,
    /// Recorded median event throughput, events/second.
    pub events_per_sec: f64,
    /// Recorded bootstrap CI lower bound.
    pub ci_lo: f64,
    /// Recorded bootstrap CI upper bound.
    pub ci_hi: f64,
    /// Per-entry `max_drop` override; beats every other source.
    pub max_drop: Option<f64>,
    /// Absolute events/second floor this scenario must clear no matter
    /// what the relative gate tolerates.
    pub min_floor: Option<f64>,
}

/// A parsed `--export-baseline` file: the recorded scenarios plus the
/// file-level gate defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// File-level `defaults.max_drop`, when present.
    pub max_drop: Option<f64>,
    /// The recorded scenario entries.
    pub entries: Vec<BaselineEntry>,
}

/// Pulls the next `"key": value` scalar out of `obj`. Good enough for
/// the machine-written baseline format; anything surprising is a parse
/// error, never a silent pass.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let rest = &obj[obj.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .char_indices()
        .find(|&(i, c)| {
            if rest.starts_with('"') {
                i > 0 && c == '"' && rest.as_bytes()[i - 1] != b'\\'
            } else {
                c == ',' || c == '}' || c == '\n'
            }
        })
        .map(|(i, _)| if rest.starts_with('"') { i + 1 } else { i })?;
    Some(rest[..end].trim())
}

fn string_field(obj: &str, key: &str) -> Result<String, String> {
    let raw = field(obj, key).ok_or_else(|| format!("missing \"{key}\""))?;
    raw.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_owned)
        .ok_or_else(|| format!("\"{key}\" is not a string: {raw}"))
}

fn number_field(obj: &str, key: &str) -> Result<f64, String> {
    let raw = field(obj, key).ok_or_else(|| format!("missing \"{key}\""))?;
    raw.parse::<f64>().map_err(|_| format!("\"{key}\" is not a number: {raw}"))
}

/// Like [`number_field`] but absent keys are `None`, not errors —
/// the shape overrides take.
fn opt_number_field(obj: &str, key: &str) -> Result<Option<f64>, String> {
    match field(obj, key) {
        None => Ok(None),
        Some(raw) => {
            raw.parse::<f64>().map(Some).map_err(|_| format!("\"{key}\" is not a number: {raw}"))
        }
    }
}

fn validate_max_drop(v: Option<f64>, ctx: &str) -> Result<(), String> {
    match v {
        Some(d) if !(0.0..1.0).contains(&d) => {
            Err(format!("{ctx}: max_drop must be a fraction in [0, 1), got {d}"))
        }
        _ => Ok(()),
    }
}

/// Parses a `--export-baseline` file. Returns a descriptive error for
/// anything that is not a well-formed baseline (exit code 4 material),
/// including two entries for one scenario: the gate would check one
/// measurement against both.
pub fn parse_baseline(src: &str) -> Result<Baseline, String> {
    if !src.contains("\"baseline\"") {
        return Err("not a baseline export (no \"baseline\" tag)".to_owned());
    }
    let max_drop = match src.find("\"defaults\"") {
        None => None,
        Some(i) => {
            let open = src[i..]
                .find('{')
                .map(|j| i + j)
                .ok_or_else(|| "\"defaults\" is not an object".to_owned())?;
            let close = src[open..]
                .find('}')
                .map(|j| open + j + 1)
                .ok_or_else(|| "unterminated defaults object".to_owned())?;
            opt_number_field(&src[open..close], "max_drop")?
        }
    };
    validate_max_drop(max_drop, "defaults")?;
    let engine = src
        .find("\"engine\"")
        .and_then(|i| src[i..].find('[').map(|j| &src[i + j..]))
        .ok_or_else(|| "no \"engine\" entry array".to_owned())?;
    let mut entries = Vec::new();
    let mut rest = engine;
    while let Some(open) = rest.find('{') {
        let close = rest[open..].find('}').ok_or_else(|| "unterminated entry object".to_owned())?;
        let obj = &rest[open..open + close + 1];
        entries.push(BaselineEntry {
            scenario: string_field(obj, "scenario")?,
            events_per_sec: number_field(obj, "events_per_sec")?,
            ci_lo: number_field(obj, "events_per_sec_ci_lo")?,
            ci_hi: number_field(obj, "events_per_sec_ci_hi")?,
            max_drop: opt_number_field(obj, "max_drop")?,
            min_floor: opt_number_field(obj, "min_floor")?,
        });
        rest = &rest[open + close + 1..];
        // Stop at the end of the engine array; later sections (if any)
        // are not entries.
        if let Some(end) = rest.find(']') {
            if rest[..end].find('{').is_none() {
                break;
            }
        }
    }
    if entries.is_empty() {
        return Err("baseline has no engine entries".to_owned());
    }
    for (i, e) in entries.iter().enumerate() {
        if entries[..i].iter().any(|earlier| earlier.scenario == e.scenario) {
            return Err(format!("{}: more than one entry for the scenario", e.scenario));
        }
        if !(e.ci_lo.is_finite() && e.ci_hi.is_finite() && e.ci_lo <= e.ci_hi) {
            return Err(format!("{}: malformed CI [{}, {}]", e.scenario, e.ci_lo, e.ci_hi));
        }
        validate_max_drop(e.max_drop, &e.scenario)?;
    }
    Ok(Baseline { max_drop, entries })
}

/// Gates the current run against a recorded baseline. Returns one
/// message per regressed scenario (empty = gate passed). Scenarios in
/// the baseline but absent from the current run are regressions too —
/// a deleted benchmark must not silently pass its gate. New scenarios
/// with no recorded baseline pass (the next `--export-baseline` picks
/// them up).
///
/// `cli_max_drop` is the explicit `--max-drop` value when the flag was
/// given; per-entry overrides beat it, and it beats the file default.
pub fn compare(
    current: &[EngineBaseline],
    baseline: &Baseline,
    cli_max_drop: Option<f64>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for b in &baseline.entries {
        let max_drop =
            b.max_drop.or(cli_max_drop).or(baseline.max_drop).unwrap_or(DEFAULT_MAX_DROP);
        let floor = b.ci_lo * (1.0 - max_drop);
        match current.iter().find(|c| c.scenario == b.scenario) {
            None => {
                failures.push(format!("{}: in baseline but not measured by this run", b.scenario))
            }
            Some(c) => {
                if c.ci_hi < floor {
                    failures.push(format!(
                        "{}: regressed — current CI [{:.3e}, {:.3e}] ev/s is entirely below \
                         baseline lower bound {:.3e} x (1 - {max_drop}) = {:.3e}",
                        b.scenario, c.ci_lo, c.ci_hi, b.ci_lo, floor
                    ));
                }
                if let Some(min_floor) = b.min_floor {
                    if c.ci_hi < min_floor {
                        failures.push(format!(
                            "{}: below the absolute min_floor — current CI \
                             [{:.3e}, {:.3e}] ev/s is entirely below {:.3e}",
                            b.scenario, c.ci_lo, c.ci_hi, min_floor
                        ));
                    }
                }
            }
        }
    }
    failures
}

/// The full `--baseline` gate: everything [`compare`] checks, plus the
/// identity invariant and the `FUSED_SPEEDUP_MIN` fusion floor.
pub fn check(
    summary: &BenchSummary,
    baseline: &Baseline,
    cli_max_drop: Option<f64>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if !summary.identical_results {
        failures.push("identical_results is false: a run diverged from its reference".into());
    }
    for b in &summary.engine_baselines {
        if b.fused_speedup < FUSED_SPEEDUP_MIN {
            failures.push(format!(
                "{}: fused_speedup {:.3} below the {FUSED_SPEEDUP_MIN} floor — \
                 pipeline fusion made the engine slower",
                b.scenario, b.fused_speedup
            ));
        }
    }
    failures.extend(compare(&summary.engine_baselines, baseline, cli_max_drop));
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(scenario: &str, lo: f64, hi: f64) -> EngineBaseline {
        EngineBaseline {
            scenario: scenario.to_owned(),
            events_per_sec: (lo + hi) / 2.0,
            ci_lo: lo,
            ci_hi: hi,
            fused_speedup: 1.0,
        }
    }

    fn sample_export() -> String {
        r#"{
  "baseline": "simnet-engine",
  "quick": false,
  "bootstrap_resamples": 200,
  "defaults": {
    "max_drop": 0.15
  },
  "engine": [
    {
      "scenario": "forward-2stage",
      "events_per_sec": 2.0e7,
      "events_per_sec_ci_lo": 1.9e7,
      "events_per_sec_ci_hi": 2.1e7,
      "fused_speedup": 1.4
    },
    {
      "scenario": "batch-gpu",
      "events_per_sec": 5.0e6,
      "events_per_sec_ci_lo": 4.8e6,
      "events_per_sec_ci_hi": 5.2e6,
      "fused_speedup": 1.0
    }
  ]
}"#
        .to_owned()
    }

    #[test]
    fn parses_the_export_format_roundtrip() {
        let base = parse_baseline(&sample_export()).expect("parses");
        assert_eq!(base.max_drop, Some(0.15));
        assert_eq!(base.entries.len(), 2);
        assert_eq!(base.entries[0].scenario, "forward-2stage");
        assert!((base.entries[0].ci_lo - 1.9e7).abs() < 1.0);
        assert_eq!(base.entries[0].max_drop, None);
        assert_eq!(base.entries[0].min_floor, None);
        assert_eq!(base.entries[1].scenario, "batch-gpu");
    }

    #[test]
    fn parses_per_entry_overrides() {
        let src = r#"{
  "baseline": "x",
  "engine": [
    {
      "scenario": "forward-2stage",
      "events_per_sec": 2.0e7,
      "events_per_sec_ci_lo": 1.9e7,
      "events_per_sec_ci_hi": 2.1e7,
      "max_drop": 0.05,
      "min_floor": 7.0e6
    }
  ]
}"#;
        let base = parse_baseline(src).expect("parses");
        assert_eq!(base.max_drop, None);
        assert_eq!(base.entries[0].max_drop, Some(0.05));
        assert_eq!(base.entries[0].min_floor, Some(7.0e6));
    }

    #[test]
    fn rejects_out_of_range_max_drop() {
        let src = r#"{
  "baseline": "x",
  "defaults": { "max_drop": 1.5 },
  "engine": [
    {
      "scenario": "a",
      "events_per_sec": 1.0,
      "events_per_sec_ci_lo": 1.0,
      "events_per_sec_ci_hi": 1.0
    }
  ]
}"#;
        let err = parse_baseline(src).expect_err("1.5 is not a fraction");
        assert!(err.contains("max_drop"), "{err}");
    }

    #[test]
    fn rejects_malformed_baselines() {
        assert!(parse_baseline("{}").is_err(), "no baseline tag");
        assert!(parse_baseline(r#"{"baseline": "simnet-engine"}"#).is_err(), "no engine array");
        assert!(
            parse_baseline(r#"{"baseline": "x", "engine": [{"scenario": "a"}]}"#).is_err(),
            "entry missing numbers"
        );
    }

    #[test]
    fn rejects_two_entries_for_one_scenario() {
        // Two entries for one scenario would gate one measurement
        // twice, so the file is malformed (exit 4).
        let src = sample_export().replace("\"batch-gpu\"", "\"forward-2stage\"");
        let err = parse_baseline(&src).expect_err("duplicate scenario");
        assert!(err.contains("forward-2stage: more than one entry"), "{err}");
    }

    #[test]
    fn overlapping_intervals_pass_the_gate() {
        let base = parse_baseline(&sample_export()).expect("parses");
        // Slightly slower but CI still overlaps the shrunk baseline.
        let current = vec![entry("forward-2stage", 1.7e7, 1.8e7), entry("batch-gpu", 4.5e6, 4.9e6)];
        assert!(compare(&current, &base, None).is_empty());
    }

    #[test]
    fn clear_regressions_fail_the_gate() {
        let base = parse_baseline(&sample_export()).expect("parses");
        // Half the recorded throughput: no overlap at any reasonable drop.
        let current = vec![entry("forward-2stage", 0.9e7, 1.0e7), entry("batch-gpu", 4.8e6, 5.2e6)];
        let failures = compare(&current, &base, None);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("forward-2stage: regressed"));
    }

    #[test]
    fn missing_scenarios_count_as_regressions() {
        let base = parse_baseline(&sample_export()).expect("parses");
        let current = vec![entry("forward-2stage", 1.9e7, 2.1e7)];
        let failures = compare(&current, &base, None);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("batch-gpu"));
        assert!(failures[0].contains("not measured"));
    }

    #[test]
    fn new_scenarios_without_a_baseline_pass() {
        let base = parse_baseline(&sample_export()).expect("parses");
        let current = vec![
            entry("forward-2stage", 1.9e7, 2.1e7),
            entry("batch-gpu", 4.8e6, 5.2e6),
            entry("brand-new", 1.0, 2.0),
        ];
        assert!(compare(&current, &base, None).is_empty());
    }

    #[test]
    fn max_drop_precedence_is_entry_then_cli_then_file_default() {
        let mut base = parse_baseline(&sample_export()).expect("parses");
        // forward-2stage baseline ci_lo = 1.9e7. Current ci_hi = 1.5e7:
        // a ~21% drop below the recorded lower bound.
        let current = vec![entry("forward-2stage", 1.4e7, 1.5e7), entry("batch-gpu", 4.8e6, 5.2e6)];
        // File default 0.15 → fails.
        assert_eq!(compare(&current, &base, None).len(), 1);
        // Explicit CLI 0.30 beats the file default → passes.
        assert!(compare(&current, &base, Some(0.30)).is_empty());
        // Per-entry 0.10 beats the CLI's 0.30 → fails again.
        base.entries[0].max_drop = Some(0.10);
        assert_eq!(compare(&current, &base, Some(0.30)).len(), 1);
    }

    #[test]
    fn min_floor_holds_even_when_the_relative_gate_passes() {
        let mut base = parse_baseline(&sample_export()).expect("parses");
        // A drifted-down baseline: recorded CI near the current numbers,
        // so the relative gate is happy — but the hand-set absolute
        // floor is not.
        base.entries[0].ci_lo = 1.0e6;
        base.entries[0].min_floor = Some(5.0e6);
        let current = vec![entry("forward-2stage", 1.0e6, 1.1e6), entry("batch-gpu", 4.8e6, 5.2e6)];
        let failures = compare(&current, &base, None);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("min_floor"), "{failures:?}");
    }

    #[test]
    fn full_check_carries_identity_and_fusion_gates() {
        use crate::microbench::BenchSummary;
        let base = parse_baseline(&sample_export()).expect("parses");
        let point = apples_core::stats::BootstrapCi { mean: 1.0, lo: 1.0, hi: 1.0, resamples: 1 };
        let mut summary = BenchSummary {
            identical_results: true,
            obs_overhead_ratio: 1.0,
            obs_overhead_ci: point.clone(),
            full_overhead_ci: point,
            engine_baselines: vec![
                entry("forward-2stage", 1.9e7, 2.1e7),
                entry("batch-gpu", 4.8e6, 5.2e6),
            ],
        };
        assert!(check(&summary, &base, None).is_empty());

        summary.identical_results = false;
        assert_eq!(check(&summary, &base, None).len(), 1, "identity break must fail");

        summary.identical_results = true;
        summary.engine_baselines[0].fused_speedup = 0.5;
        let failures = check(&summary, &base, None);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("fused_speedup"), "{failures:?}");
    }
}
