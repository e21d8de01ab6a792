//! End-to-end store gate: a fully-warm `xp all` must be byte-identical
//! — stdout, markdown reports, and figure CSVs — to a cold run and to
//! a `--no-cache` run, the cache must be valid across harness
//! schedules, and regenerating a golden fixture must invalidate the
//! corresponding store entries so a post-regen run can never serve a
//! pre-regen cached report.

use apples_bench::xpall::{run_all, XpAllOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Representative subset: a table experiment, a worked example, and a
/// fault-injected experiment (exercising the fault-spec DAG roots).
/// The full 27-id matrix runs in the release-mode `== store ==` CI
/// stage; this debug-mode gate keeps the same shape but small.
const IDS: [&str; 3] = ["fig1a", "ex42", "robustness-verdict"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apples-store-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn opts(store: &Path, artifacts: &Path, threads: usize) -> XpAllOptions {
    let mut o = XpAllOptions::for_ids(IDS.iter().map(|s| s.to_string()).collect());
    o.store_root = store.to_path_buf();
    o.csv_dir = Some(artifacts.join("csv"));
    o.md_dir = Some(artifacts.join("md"));
    o.threads = Some(threads);
    o
}

/// Stdout minus the `wrote <path>` echo lines, which name the (per-run
/// temp) artifact directories; the artifact bytes themselves are
/// compared separately via `dir_bytes`.
fn report_text(stdout: &str) -> String {
    stdout.lines().filter(|l| !l.starts_with("wrote ")).collect::<Vec<_>>().join("\n")
}

/// Every regular file under a directory, keyed by relative path.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = match std::fs::read_dir(&d) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("under dir").display().to_string();
                out.insert(rel, std::fs::read(&path).expect("read artifact"));
            }
        }
    }
    out
}

/// Cold run (all misses) → warm run (100% hits, different pool width)
/// → `--no-cache` run: stdout, CSVs, and markdown byte-identical
/// across all three.
#[test]
fn warm_run_is_byte_identical_to_cold_and_no_cache() {
    let store = temp_dir("identity-store");
    let (a, b, c) = (temp_dir("identity-a"), temp_dir("identity-b"), temp_dir("identity-c"));

    let cold = run_all(&opts(&store, &a, 1)).expect("cold run");
    assert_eq!(cold.stats.hit, 0, "cold run hit a fresh store");
    assert_eq!(cold.stats.miss, cold.stats.nodes);
    assert_eq!(cold.stats.executed.len(), IDS.len(), "cold run must execute everything");

    // Warm, on a wider pool: the cache must be schedule-independent.
    let warm = run_all(&opts(&store, &b, 4)).expect("warm run");
    assert_eq!(warm.stats.hit, warm.stats.nodes, "warm run was not 100% hits: {}", warm.explain);
    assert!(warm.stats.executed.is_empty(), "warm run re-executed {:?}", warm.stats.executed);
    assert_eq!(
        report_text(&warm.stdout),
        report_text(&cold.stdout),
        "warm stdout diverged from cold"
    );

    let mut no_cache = opts(&store, &c, 2);
    no_cache.no_cache = true;
    let fresh = run_all(&no_cache).expect("no-cache run");
    assert_eq!(fresh.stats.executed.len(), IDS.len(), "--no-cache must execute everything");
    assert_eq!(
        report_text(&fresh.stdout),
        report_text(&cold.stdout),
        "--no-cache stdout diverged from cold"
    );

    let (cold_files, warm_files, fresh_files) = (dir_bytes(&a), dir_bytes(&b), dir_bytes(&c));
    assert!(!cold_files.is_empty(), "cold run wrote no artifacts");
    assert_eq!(cold_files, warm_files, "a cached CSV/report differs from its cold original");
    assert_eq!(cold_files, fresh_files, "a --no-cache artifact differs from its cold original");

    for d in [&store, &a, &b, &c] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Golden-regen regression: changing a golden fixture's bytes changes
/// that experiment's run key, so the next `xp all` re-executes exactly
/// that experiment instead of serving the pre-regen cached report.
#[test]
fn regenerated_golden_fixture_invalidates_the_cached_report() {
    let store = temp_dir("regen-store");
    let golden = temp_dir("regen-golden");
    for id in IDS {
        let fixture = PathBuf::from("tests").join("golden").join(format!("{id}.md"));
        std::fs::copy(&fixture, golden.join(format!("{id}.md"))).expect("copy fixture");
    }

    let mut o = opts(&store, &temp_dir("regen-a"), 2);
    o.golden_dir = golden.clone();
    let cold = run_all(&o).expect("cold run");
    assert_eq!(cold.stats.executed.len(), IDS.len());

    // Regenerate one fixture (byte change, as GOLDEN_REGEN=1 would).
    let victim = "ex42";
    let path = golden.join(format!("{victim}.md"));
    let mut bytes = std::fs::read(&path).expect("read fixture");
    bytes.extend_from_slice(b"\n<!-- regenerated -->\n");
    std::fs::write(&path, &bytes).expect("rewrite fixture");

    let regen = run_all(&o).expect("post-regen run");
    assert_eq!(
        regen.stats.executed,
        vec![victim.to_string()],
        "post-regen run must re-execute exactly the regenerated experiment: {}",
        regen.explain
    );
    assert!(regen.stats.stale >= 1, "the stale run node went undetected: {}", regen.explain);
    assert_eq!(
        report_text(&regen.stdout),
        report_text(&cold.stdout),
        "report bytes changed with only a fixture regen"
    );

    // And the store settles: the next run is fully warm again.
    let warm = run_all(&o).expect("settled run");
    assert_eq!(warm.stats.hit, warm.stats.nodes, "store did not settle post-regen");
    assert!(warm.stats.executed.is_empty());

    for d in [&store, &golden] {
        let _ = std::fs::remove_dir_all(d);
    }
}
