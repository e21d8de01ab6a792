//! Golden tests for the analyzer: a fixture tree of known-bad sources
//! with an exact expected finding list, plus a self-check that the real
//! workspace stays lint-clean.

use apples_lint::{lint_workspace, Severity};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad_workspace")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

#[test]
fn fixture_findings_match_golden() {
    let report = lint_workspace(&fixture_root()).expect("fixture tree scans");
    let got: Vec<(&str, &str, usize)> =
        report.findings.iter().map(|f| (f.rule, f.path.as_str(), f.line)).collect();
    let want: Vec<(&str, &str, usize)> = vec![
        ("S2", "crates/bench/src/entropy.rs", 3),
        ("S2", "crates/bench/src/entropy.rs", 6),
        ("H1", "crates/bench/src/main.rs", 1),
        ("D3", "crates/bench/src/threads.rs", 4),
        ("A1", "crates/core/src/allows.rs", 6),
        ("D1", "crates/core/src/allows.rs", 7),
        ("D1", "crates/core/src/allows.rs", 8),
        ("A1", "crates/core/src/allows.rs", 11),
        ("D2", "crates/core/src/clock.rs", 6),
        ("N1", "crates/core/src/floats.rs", 4),
        ("P1", "crates/core/src/panics.rs", 8),
        ("P1", "crates/core/src/panics.rs", 9),
        ("P1", "crates/core/src/panics.rs", 11),
        ("A2", "crates/core/src/stale.rs", 3),
        ("N2", "crates/metrics/src/sig.rs", 9),
        ("D3", "crates/simnet/src/sched.rs", 5),
        ("S1", "crates/simnet/src/shared_state.rs", 3),
        ("S1", "crates/simnet/src/shared_state.rs", 6),
        ("S1", "crates/simnet/src/shared_state.rs", 20),
        ("D2", "crates/simnet/src/tainted.rs", 5),
        ("S3", "crates/simnet/src/tainted.rs", 6),
        ("S3", "crates/simnet/src/tainted.rs", 7),
        ("S3", "crates/simnet/src/tainted.rs", 12),
        ("S3", "crates/simnet/src/tainted.rs", 13),
        ("D1", "crates/simnet/src/tainted.rs", 16),
        ("S3", "crates/simnet/src/tainted.rs", 18),
        ("D1", "crates/simnet/src/unordered.rs", 3),
        ("D1", "crates/simnet/src/unordered.rs", 8),
        ("D1", "crates/simnet/src/unordered.rs", 9),
        ("H1", "src/lib.rs", 1),
        ("H1", "src/lib.rs", 1),
    ];
    assert_eq!(got, want, "full report:\n{}", report.render());
    // The reasoned D1 allow plus the reasoned S1 allows on the OnceLock
    // and the allowed barrier.
    assert_eq!(report.suppressed, 3, "exactly the reasoned allows suppress");
    assert_eq!(report.files_scanned, 16);
    // Everything denies except the stale-suppression warning.
    for f in &report.findings {
        let want = if f.rule == "A2" { Severity::Warn } else { Severity::Deny };
        assert_eq!(f.severity, want, "{}:{} {}", f.path, f.line, f.rule);
    }
    // The scheduler module gets its own D3 phrasing (determinism rationale).
    let sched = report
        .findings
        .iter()
        .find(|f| f.path == "crates/simnet/src/sched.rs")
        .expect("scheduler fixture finding");
    assert!(sched.message.contains("event scheduler"), "got: {}", sched.message);
}

#[test]
fn fixture_decoys_stay_silent() {
    let report = lint_workspace(&fixture_root()).expect("fixture tree scans");
    // Rule text inside strings/comments, cfg(test) regions, tuple-field
    // comparisons, and the sanctioned pool path must produce nothing.
    assert!(report.findings.iter().all(|f| f.path != "crates/bench/src/pool.rs"));
    assert!(report.findings.iter().all(|f| !(f.path.ends_with("unordered.rs") && f.line > 10)));
    assert!(report.findings.iter().all(|f| !(f.path.ends_with("floats.rs") && f.line > 4)));
    assert!(report.findings.iter().all(|f| !(f.path.ends_with("panics.rs") && f.line > 14)));
    // S-rule scoping: the rng crate is exempt from S2; Arc payloads and
    // test-region cells never trip S1; the clean dispatch fn has no S3.
    assert!(report.findings.iter().all(|f| !f.path.starts_with("crates/rng/")));
    assert!(report.findings.iter().all(|f| !(f.path.ends_with("shared_state.rs") && f.line > 20)));
    assert!(report.findings.iter().all(|f| !(f.path.ends_with("tainted.rs") && f.line > 18)));
}

#[test]
fn fixture_fingerprints_are_unique_and_well_formed() {
    let report = lint_workspace(&fixture_root()).expect("fixture tree scans");
    let mut seen = std::collections::BTreeSet::new();
    for f in &report.findings {
        assert_eq!(f.fingerprint.len(), 16, "{}: {}", f.path, f.fingerprint);
        assert!(f.fingerprint.chars().all(|c| c.is_ascii_hexdigit()));
        assert!(seen.insert(f.fingerprint.clone()), "duplicate fingerprint {}", f.fingerprint);
        assert!(!f.legacy, "no baseline applied, nothing is legacy");
    }
}

#[test]
fn reports_render_byte_identically_across_runs() {
    let a = lint_workspace(&fixture_root()).expect("first run");
    let b = lint_workspace(&fixture_root()).expect("second run");
    assert_eq!(a.render(), b.render());
    assert_eq!(a.to_json().render_pretty(), b.to_json().render_pretty());
}

#[test]
fn real_workspace_is_clean() {
    let report = lint_workspace(&workspace_root()).expect("workspace scans");
    assert_eq!(report.deny_count(), 0, "workspace has deny findings:\n{}", report.render());
    assert_eq!(report.warn_count(), 0, "stale suppressions:\n{}", report.render());
    assert!(report.files_scanned > 50, "walker should see the whole workspace");
}
