//! Seeded-mutation tests: take the *real* engine source, inject the
//! exact nondeterminism bugs the S rules exist to stop (a hash-order
//! walk feeding the scheduler, a wall-clock timestamp, a pointer-derived
//! sequence number), and assert the analyzer catches every one.
//!
//! This is the analyzer's own identity gate: the golden fixtures prove
//! the rules fire on distilled examples, this proves they fire on the
//! production dispatch code they are meant to guard.

use apples_lint::lint_source;
use std::path::Path;

const ENGINE_REL: &str = "crates/simnet/src/engine.rs";

fn engine_source() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../simnet/src/engine.rs");
    std::fs::read_to_string(path).expect("engine source readable")
}

/// The pristine engine carries no S findings — mutations below are the
/// only delta, so any new finding is attributable to the injected bug.
#[test]
fn pristine_engine_has_no_s_findings() {
    let report = lint_source(ENGINE_REL, &engine_source());
    let s: Vec<_> = report.findings.iter().filter(|f| f.rule.starts_with('S')).collect();
    assert!(s.is_empty(), "pristine engine flagged: {s:?}");
}

fn s3_hits(src: &str) -> Vec<String> {
    lint_source(ENGINE_REL, src)
        .findings
        .iter()
        .filter(|f| f.rule == "S3")
        .map(|f| f.message.clone())
        .collect()
}

/// Mutation 1: drain pending events by walking a `HashMap` — iteration
/// order would differ run to run, so delivery order would too.
#[test]
fn hash_order_drain_is_caught() {
    let mut src = engine_source();
    src.push_str(
        "\npub fn mutated_drain(map: &std::collections::HashMap<u64, u32>, core: &mut EngineCore) {\n\
         \x20   for (when, tag) in map.iter() {\n\
         \x20       core.events.push(*when, core.mint_seq(), *tag);\n\
         \x20   }\n\
         }\n",
    );
    let hits = s3_hits(&src);
    assert!(
        hits.iter().any(|m| m.contains("hash-iteration order")),
        "hash-order mutation missed: {hits:?}"
    );
    // The plain D1 container rule backs the taint pass up.
    let report = lint_source(ENGINE_REL, &src);
    assert!(report.findings.iter().any(|f| f.rule == "D1"));
}

/// Mutation 2: stamp an event with the host clock — replay from
/// `(seed, spec)` dies the moment wall time leaks into `t_ns`.
#[test]
fn wall_clock_timestamp_is_caught() {
    let mut src = engine_source();
    src.push_str(
        "\npub fn mutated_stamp() -> u64 {\n\
         \x20   let wall = std::time::Instant::now();\n\
         \x20   let t_ns = wall.elapsed().as_nanos() as u64;\n\
         \x20   t_ns\n\
         }\n",
    );
    let hits = s3_hits(&src);
    assert!(
        hits.iter().any(|m| m.contains("t_ns") && m.contains("wall-clock")),
        "wall-clock mutation missed: {hits:?}"
    );
}

/// Mutation 3: mint `seq` from an allocator address — unique, monotone
/// within a run, and different on every run: the classic silent killer.
#[test]
fn pointer_derived_seq_is_caught() {
    let mut src = engine_source();
    src.push_str(
        "\npub fn mutated_seq(ev: &EventKey) -> u64 {\n\
         \x20   let addr = ev as *const EventKey as usize;\n\
         \x20   let seq = addr as u64;\n\
         \x20   seq\n\
         }\n",
    );
    let hits = s3_hits(&src);
    assert!(
        hits.iter().any(|m| m.contains("seq") && m.contains("pointer/address")),
        "pointer mutation missed: {hits:?}"
    );
}

/// Mutations of the one place seqs are minted, `EventCore::mint`, in
/// place: a seq from the mint counter's address (M3) and one from the
/// host clock (M2). Both keep the dispatch order, so they change no
/// simulated output and no test sees them; S3 is what stops them, and
/// it matches on the binding's name, so `mint` must bind its result to
/// `seq`.
#[test]
fn mutated_mint_seq_is_caught() {
    const MINT_LINE: &str = "let seq = self.seq;";
    let src = engine_source();
    assert_eq!(src.matches(MINT_LINE).count(), 1, "mint() must bind the minted seq to `seq`");
    for mutant in [
        "let seq = &self.seq as *const u64 as u64 + self.total;",
        "let seq = std::time::Instant::now().elapsed().as_nanos() as u64;",
    ] {
        let hits = s3_hits(&src.replace(MINT_LINE, mutant));
        assert!(hits.iter().any(|m| m.contains("seq")), "{mutant:?} missed: {hits:?}");
    }
}

/// Fingerprints survive reformatting: the same finding keeps its
/// identity when the file is re-indented and lines shift.
#[test]
fn fingerprints_survive_reformatting() {
    let bad = "pub fn f() {\n    let t_ns = std::time::Instant::now().elapsed().as_nanos() as u64;\n    t_ns\n}\n";
    let shifted = format!("// a new leading comment\n\n{}", bad.replace("    ", "        "));
    let a = lint_source(ENGINE_REL, bad);
    let b = lint_source(ENGINE_REL, &shifted);
    let fp = |r: &apples_lint::LintReport| -> Vec<String> {
        r.findings.iter().filter(|f| f.rule == "S3").map(|f| f.fingerprint.clone()).collect()
    };
    assert_eq!(fp(&a), fp(&b), "fingerprints must not depend on line numbers or indentation");
    assert!(!fp(&a).is_empty());
}
