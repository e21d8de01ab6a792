//! The analysis driver: walks a workspace, applies the rule catalog to
//! every non-test `.rs` file, resolves `lint: allow` suppressions, and
//! renders findings as human-readable text or machine-readable JSON
//! (via the workspace's hand-rolled emitter).
//!
//! Everything is deterministic: directory entries are visited in sorted
//! order and findings are sorted by (path, line, rule), so two runs over
//! the same tree produce byte-identical output and the same exit code.

use crate::lexer::lex;
use crate::rules::{float_literal_comparison, has_token, parse_allows, rule, Severity};
use crate::scanner::{scan_tokens, ScannedLine};
use apples_core::json::Json;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id from the catalog (`D1`, `P1`, …).
    pub rule: &'static str,
    /// Severity tier of the rule.
    pub severity: Severity,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Stable FNV-1a identity: hashes `(rule, path, whitespace-collapsed
    /// snippet, same-content occurrence index)` — everything *except*
    /// the line number — so the fingerprint survives reformatting and
    /// code motion, and a baseline keeps matching after a refactor.
    pub fingerprint: String,
    /// True when the fingerprint matched an entry of the loaded
    /// baseline: tracked, rendered, but not counted by
    /// [`LintReport::deny_count`] (new findings gate, legacy ones don't).
    pub legacy: bool,
}

/// The outcome of linting a tree.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of findings suppressed by a reasoned `lint: allow`.
    pub suppressed: usize,
}

impl LintReport {
    /// Number of gating deny-tier findings (the CI gate). Findings
    /// marked legacy by a baseline are excluded: they are tracked debt,
    /// not new violations.
    pub fn deny_count(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Deny && !f.legacy).count()
    }

    /// Number of warn-tier findings (legacy ones excluded).
    pub fn warn_count(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Warn && !f.legacy).count()
    }

    /// Number of findings matched (and defused) by the loaded baseline.
    pub fn legacy_count(&self) -> usize {
        self.findings.iter().filter(|f| f.legacy).count()
    }

    /// Marks every finding whose fingerprint appears in `baseline` as
    /// legacy: still rendered, no longer gating. Returns the baseline
    /// entries that matched nothing (a fixed finding whose entry should
    /// be retired).
    pub fn apply_baseline(&mut self, baseline: &BTreeSet<String>) -> Vec<String> {
        let mut matched = BTreeSet::new();
        for f in &mut self.findings {
            if baseline.contains(&f.fingerprint) {
                f.legacy = true;
                matched.insert(f.fingerprint.clone());
            }
        }
        baseline.iter().filter(|fp| !matched.contains(*fp)).cloned().collect()
    }

    /// Human-readable rendering, one block per finding plus a summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{} [{}/{}{}] {}\n    {}\n",
                f.path,
                f.line,
                f.rule,
                f.severity.name(),
                if f.legacy { ", legacy" } else { "" },
                f.message,
                f.snippet
            ));
        }
        out.push_str(&format!(
            "xp lint: {} finding(s) ({} deny, {} warn, {} legacy), {} suppressed, {} file(s) \
             scanned\n",
            self.findings.len(),
            self.deny_count(),
            self.warn_count(),
            self.legacy_count(),
            self.suppressed,
            self.files_scanned
        ));
        out
    }

    /// Machine-readable rendering (see `reports/lint-schema.json`).
    pub fn to_json(&self) -> Json {
        let findings: Vec<Json> = self
            .findings
            .iter()
            .map(|f| {
                Json::obj()
                    .field("rule", f.rule)
                    .field("severity", f.severity.name())
                    .field("path", f.path.as_str())
                    .field("line", f.line)
                    .field("message", f.message.as_str())
                    .field("snippet", f.snippet.as_str())
                    .field("fingerprint", f.fingerprint.as_str())
                    .field("legacy", f.legacy)
            })
            .collect();
        Json::obj()
            .field("tool", "xp lint")
            .field("schema_version", 2u64)
            .field("files_scanned", self.files_scanned)
            .field("deny", self.deny_count())
            .field("warn", self.warn_count())
            .field("legacy", self.legacy_count())
            .field("suppressed", self.suppressed)
            .field("findings", Json::Arr(findings))
    }
}

/// 64-bit FNV-1a (same parameters as `apples-obs`'s provenance digests;
/// duplicated here so the analyzer keeps zero workspace dependencies
/// beyond the JSON emitter).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Sorts findings into report order and stamps each with its stable
/// fingerprint. Called once per report, after every file is linted.
fn finalize(report: &mut LintReport) {
    report
        .findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    // Occurrence index: the n-th finding with identical (rule, path,
    // normalized snippet) content keeps a distinct, stable identity.
    let mut seen: std::collections::BTreeMap<(String, String, String), usize> =
        std::collections::BTreeMap::new();
    for f in &mut report.findings {
        let normalized = f.snippet.split_whitespace().collect::<Vec<_>>().join(" ");
        let key = (f.rule.to_owned(), f.path.clone(), normalized.clone());
        let n = seen.entry(key).or_insert(0);
        let material = format!("{}\u{0}{}\u{0}{}\u{0}{}", f.rule, f.path, normalized, n);
        f.fingerprint = format!("{:016x}", fnv1a64(material.as_bytes()));
        *n += 1;
    }
}

/// Loads a fingerprint baseline file (`reports/lint_baseline.json`):
/// every quoted 16-hex-digit string in the file is an entry, so the
/// hand-rolled JSON the workspace writes is parsed without a JSON
/// reader. Unknown text is ignored.
pub fn load_baseline(path: &Path) -> io::Result<BTreeSet<String>> {
    let src = fs::read_to_string(path)?;
    let mut out = BTreeSet::new();
    for piece in src.split('"') {
        if piece.len() == 16 && piece.bytes().all(|b| b.is_ascii_hexdigit()) {
            out.insert(piece.to_owned());
        }
    }
    Ok(out)
}

/// Lints the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`). Scans every `.rs` file under it except
/// `target/`, VCS metadata, and `tests/` directories (integration tests
/// and fixtures are test code by construction).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();

    let mut report = LintReport::default();
    for file in &files {
        let rel = relative_path(root, file);
        let src = fs::read_to_string(file)?;
        report.files_scanned += 1;
        lint_file(&rel, &src, &mut report);
    }
    finalize(&mut report);
    Ok(report)
}

/// Lints a single in-memory source file as if it lived at the
/// workspace-relative path `rel` (path scoping — which rules apply —
/// follows `rel`). This is the mutation-testing entry point: seed a
/// defect into a copy of a real file and assert the analyzer catches
/// it, without touching the tree.
pub fn lint_source(rel: &str, src: &str) -> LintReport {
    let mut report = LintReport { files_scanned: 1, ..LintReport::default() };
    lint_file(rel, src, &mut report);
    finalize(&mut report);
    report
}

fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let parts: Vec<String> =
        rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
    parts.join("/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let skip = ["target", "tests", ".git", "node_modules"];
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !skip.contains(&name.as_str()) && !name.starts_with('.') {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Path scoping: which crates the panic-hygiene rule covers (library
/// crates whose panics would take down an experiment mid-run).
const P1_SCOPES: &[&str] = &[
    "crates/core/src/",
    "crates/metrics/src/",
    "crates/simnet/src/",
    "crates/power/src/",
    "crates/workload/src/",
    "crates/rng/src/",
    "crates/lint/src/",
    "crates/obs/src/",
    "crates/store/src/",
    "src/",
];

/// The one module allowed to touch `std::thread`: the deterministic
/// work-stealing pool every parallel schedule goes through.
const D3_EXEMPT: &str = "crates/bench/src/pool.rs";

/// The event-scheduler hot path. Its bucket drain order — and with it
/// every simulation result — is only deterministic single-threaded, so
/// D3 calls the module out by name instead of the generic message.
const D3_SCHED_MODULE: &str = "crates/simnet/src/sched.rs";

/// Where the unit-safety rule applies: the crate whose whole point is
/// that quantities carry units.
const N2_SCOPE: &str = "crates/metrics/src/";

fn lint_file(rel: &str, src: &str, report: &mut LintReport) {
    // One lexer pass feeds both layers: the line rules see the masked
    // projection, the S-family tree rules see the tokens themselves.
    let tokens = lex(src);
    let lines = scan_tokens(src, &tokens);

    check_h1(rel, src, report);

    // Resolve each allow to the line it governs: its own line if that
    // line has code, otherwise the next line carrying code.
    let mut allows: Vec<(usize, usize, crate::rules::Allow)> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        for allow in parse_allows(&line.comment) {
            let target = if line.code.trim().is_empty() {
                lines[idx + 1..]
                    .iter()
                    .position(|l| !l.code.trim().is_empty())
                    .map_or(idx, |off| idx + 1 + off)
            } else {
                idx
            };
            if !allow.has_reason {
                report.findings.push(Finding {
                    rule: "A1",
                    severity: Severity::Deny,
                    path: rel.to_owned(),
                    line: idx + 1,
                    message: format!(
                        "allow({}) without a reason: suppressions must say why",
                        allow.rule
                    ),
                    snippet: snippet_at(src, idx),
                    fingerprint: String::new(),
                    legacy: false,
                });
            }
            if rule(&allow.rule).is_none() {
                report.findings.push(Finding {
                    rule: "A1",
                    severity: Severity::Deny,
                    path: rel.to_owned(),
                    line: idx + 1,
                    message: format!("allow({}) names no rule in the catalog", allow.rule),
                    snippet: snippet_at(src, idx),
                    fingerprint: String::new(),
                    legacy: false,
                });
            }
            allows.push((target, idx, allow));
        }
    }

    // Raw findings from every rule, then one resolution pass against
    // the allows (which also learns which suppressions were *used* —
    // the A2 input).
    let mut raw: Vec<(usize, &'static str, String)> = Vec::new();
    let mut emit = |line_idx: usize, rule_id: &'static str, message: String| {
        raw.push((line_idx, rule_id, message));
    };

    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }

        // D1 — unordered containers.
        for container in ["HashMap", "HashSet"] {
            if has_token(code, container) {
                emit(idx, "D1", format!("{container} in non-test code"));
            }
        }

        // D2 — wall-clock reads.
        if code.contains("Instant::now") || has_token(code, "SystemTime") {
            emit(idx, "D2", "wall-clock read in non-test code".to_owned());
        }

        // D3 — raw threads outside the pool.
        if rel != D3_EXEMPT && (code.contains("thread::spawn") || code.contains("std::thread")) {
            let message = if rel == D3_SCHED_MODULE {
                "raw std::thread in the event scheduler: event-queue bucket order is only \
                 deterministic single-threaded"
                    .to_owned()
            } else {
                "raw std::thread outside the deterministic pool".to_owned()
            };
            emit(idx, "D3", message);
        }

        // P1 — panic hygiene in library crates.
        if P1_SCOPES.iter().any(|s| rel.starts_with(s)) {
            for pat in ["unwrap()", "expect(", "panic!"] {
                if code.contains(pat) {
                    emit(idx, "P1", format!("`{pat}` in library non-test code"));
                }
            }
        }

        // N1 — float-literal equality.
        if float_literal_comparison(code) {
            emit(idx, "N1", "==/!= against a float literal".to_owned());
        }

        // N2 — raw f64 crossing the metrics API boundary.
        if rel.starts_with(N2_SCOPE) && is_pub_fn_line(code) {
            let sig = collect_signature(&lines, idx);
            if has_token(&sig, "f64") && !returns_newtype(&sig) {
                emit(
                    idx,
                    "N2",
                    "raw f64 in a public metrics signature (not a unit constructor)".to_owned(),
                );
            }
        }
    }

    // S1/S2/S3 — the determinism rules over the token tree (DESIGN.md
    // §11), fed through the same suppression machinery.
    let test_lines: Vec<bool> = lines.iter().map(|l| l.in_test).collect();
    for tf in crate::taint::analyze(rel, &tokens, &test_lines) {
        emit(tf.line, tf.rule, tf.message);
    }

    // Resolution: suppress reasoned allows, record which were used.
    let mut used = vec![false; allows.len()];
    for (line_idx, rule_id, message) in raw {
        let hit = allows
            .iter()
            .position(|(target, _, a)| *target == line_idx && a.rule == rule_id && a.has_reason);
        if let Some(ai) = hit {
            used[ai] = true;
            report.suppressed += 1;
            continue;
        }
        let severity = match rule(rule_id) {
            Some(r) => r.severity,
            None => Severity::Deny,
        };
        report.findings.push(Finding {
            rule: rule_id,
            severity,
            path: rel.to_owned(),
            line: line_idx + 1,
            message,
            snippet: snippet_at(src, line_idx),
            fingerprint: String::new(),
            legacy: false,
        });
    }

    // A2 — stale suppressions: a reasoned allow of a real rule that
    // matched nothing is a claim with no referent; delete it.
    for (ai, (_, allow_line, allow)) in allows.iter().enumerate() {
        if allow.has_reason && rule(&allow.rule).is_some() && !used[ai] {
            report.findings.push(Finding {
                rule: "A2",
                severity: Severity::Warn,
                path: rel.to_owned(),
                line: allow_line + 1,
                message: format!("stale suppression: allow({}) matched no finding", allow.rule),
                snippet: snippet_at(src, *allow_line),
                fingerprint: String::new(),
                legacy: false,
            });
        }
    }
}

/// H1: crate roots must pin the hygiene attributes. Library roots need
/// both `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]`; binary
/// roots (no public API surface) need the unsafe ban only.
fn check_h1(rel: &str, src: &str, report: &mut LintReport) {
    let is_lib_root = rel == "src/lib.rs" || rel.ends_with("/src/lib.rs");
    let is_bin_root = rel == "src/main.rs" || rel.ends_with("/src/main.rs");
    if !is_lib_root && !is_bin_root {
        return;
    }
    let mut required = vec!["#![forbid(unsafe_code)]"];
    if is_lib_root {
        required.push("#![deny(missing_docs)]");
    }
    for attr in required {
        if !src.contains(attr) {
            report.findings.push(Finding {
                rule: "H1",
                severity: Severity::Deny,
                path: rel.to_owned(),
                line: 1,
                message: format!("crate root missing `{attr}`"),
                snippet: src.lines().next().unwrap_or_default().trim().to_owned(),
                fingerprint: String::new(),
                legacy: false,
            });
        }
    }
}

fn snippet_at(src: &str, line_idx: usize) -> String {
    src.lines().nth(line_idx).map(str::trim).unwrap_or_default().to_owned()
}

fn is_pub_fn_line(code: &str) -> bool {
    let t = code.trim_start();
    t.starts_with("pub fn ") || t.starts_with("pub const fn ")
}

/// Joins a (possibly multi-line) `fn` signature: everything from the
/// `pub fn` line up to its body brace or terminating semicolon.
fn collect_signature(lines: &[ScannedLine], start: usize) -> String {
    let mut sig = String::new();
    for line in lines.iter().skip(start).take(12) {
        let code = line.code.as_str();
        let end = code.find(['{', ';']).unwrap_or(code.len());
        sig.push_str(&code[..end]);
        sig.push(' ');
        if end < code.len() {
            break;
        }
    }
    sig
}

/// A signature returning `Quantity` (or `Self` on `Quantity` impls) is
/// a sanctioned constructor *into* the unit system, not a bypass.
fn returns_newtype(sig: &str) -> bool {
    match sig.split_once("->") {
        Some((_, ret)) => has_token(ret, "Quantity") || has_token(ret, "Self"),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(rel: &str, src: &str) -> LintReport {
        lint_source(rel, src)
    }

    #[test]
    fn d1_fires_outside_tests_only() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let r = lint_src("crates/simnet/src/x.rs", src);
        let d1: Vec<_> = r.findings.iter().filter(|f| f.rule == "D1").collect();
        assert_eq!(d1.len(), 1);
        assert_eq!(d1[0].line, 1);
    }

    #[test]
    fn reasoned_allow_suppresses_and_counts() {
        let src = "// lint: allow(D1, reason = \"drained in sorted order below\")\nuse std::collections::HashMap;\n";
        let r = lint_src("crates/simnet/src/x.rs", src);
        assert!(r.findings.iter().all(|f| f.rule != "D1"), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn unreasoned_allow_is_a1_and_does_not_suppress() {
        let src = "use std::collections::HashMap; // lint: allow(D1)\n";
        let r = lint_src("crates/simnet/src/x.rs", src);
        let rules: Vec<_> = r.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"A1"));
        assert!(rules.contains(&"D1"), "unreasoned allow must not suppress");
    }

    #[test]
    fn p1_is_scoped_to_library_crates() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(lint_src("crates/core/src/x.rs", src).deny_count(), 1);
        assert_eq!(lint_src("crates/bench/src/x.rs", src).deny_count(), 0);
    }

    #[test]
    fn d3_exempts_the_pool() {
        let src = "fn f() { std::thread::scope(|s| {}); }\n";
        assert_eq!(lint_src("crates/bench/src/pool.rs", src).deny_count(), 0);
        assert_eq!(lint_src("crates/bench/src/other.rs", src).deny_count(), 1);
    }

    #[test]
    fn d3_names_the_scheduler_module() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let r = lint_src("crates/simnet/src/sched.rs", src);
        let d3: Vec<_> = r.findings.iter().filter(|f| f.rule == "D3").collect();
        assert_eq!(d3.len(), 1);
        assert!(
            d3[0].message.contains("event scheduler") && d3[0].message.contains("bucket order"),
            "generic message on the scheduler module: {}",
            d3[0].message
        );
        // Everywhere else keeps the generic phrasing.
        let other = lint_src("crates/bench/src/other.rs", src);
        assert!(other
            .findings
            .iter()
            .any(|f| f.message.contains("outside the deterministic pool")));
    }

    #[test]
    fn n2_exempts_unit_constructors() {
        let ctor = "pub fn watts(v: f64) -> Quantity {\n";
        assert_eq!(lint_src("crates/metrics/src/q.rs", ctor).deny_count(), 0);
        let escape = "pub fn value(self) -> f64 {\n";
        assert_eq!(lint_src("crates/metrics/src/q.rs", escape).deny_count(), 1);
        // Outside metrics the rule does not apply at all.
        assert_eq!(lint_src("crates/core/src/q.rs", escape).deny_count(), 0);
    }

    #[test]
    fn n2_sees_multiline_signatures() {
        let src = "pub fn combine(\n    a: Quantity,\n    factor: f64,\n) -> Option<Ordering> {\n    body()\n}\n";
        assert_eq!(lint_src("crates/metrics/src/q.rs", src).deny_count(), 1);
    }

    #[test]
    fn h1_checks_crate_roots_only() {
        let bare = "pub fn x() {}\n";
        let r = lint_src("crates/foo/src/lib.rs", bare);
        assert_eq!(r.findings.iter().filter(|f| f.rule == "H1").count(), 2);
        let ok = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn x() {}\n";
        assert_eq!(lint_src("crates/foo/src/lib.rs", ok).deny_count(), 0);
        assert_eq!(lint_src("crates/foo/src/util.rs", bare).deny_count(), 0);
    }

    #[test]
    fn rendering_has_the_advertised_shape() {
        let src = "use std::collections::HashSet;\n";
        let r = lint_src("crates/simnet/src/x.rs", src);
        let human = r.render();
        assert!(human.contains("crates/simnet/src/x.rs:1 [D1/deny]"), "{human}");
        let json = r.to_json().render();
        for key in ["\"tool\"", "\"schema_version\"", "\"findings\"", "\"deny\"", "\"rule\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
