//! End-to-end store gate: a fully-warm `xp all` must be byte-identical
//! — stdout, markdown reports, and figure CSVs — to a cold run and to
//! a `--no-cache` run, the cache must be valid across harness
//! schedules, regenerating a golden fixture must re-key that
//! experiment so a post-regen run can never serve a pre-regen cached
//! report, and `xp gc` must then reap exactly the pre-regen entries.

use apples_bench::xpall::{run_all, run_gc, tables_for, XpAllOptions, XpAllOutcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Representative subset: a table experiment, a worked example, and a
/// fault-injected experiment (exercising the severity-rung key
/// components).
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
    assert_eq!(cold.stats.miss, IDS.len());
    assert_eq!(cold.stats.executed.len(), IDS.len(), "cold run must execute everything");

    // Warm, on a wider pool: the cache must be schedule-independent.
    let warm = run_all(&opts(&store, &b, 4)).expect("warm run");
    assert_eq!(warm.stats.hit, IDS.len(), "warm run was not 100% hits: {}", warm.explain);
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

/// A store warmed by a cold run over a temp copy of the `IDS`
/// fixtures, after which `victim`'s fixture is regenerated (a byte
/// change, as `GOLDEN_REGEN=1` would make). Returns the options, the
/// cold outcome and the temp dirs to remove.
fn cold_then_regen(tag: &str, victim: &str) -> (XpAllOptions, XpAllOutcome, Vec<PathBuf>) {
    let store = temp_dir(&format!("{tag}-store"));
    let golden = temp_dir(&format!("{tag}-golden"));
    let artifacts = temp_dir(&format!("{tag}-a"));
    for id in IDS {
        let fixture = PathBuf::from("tests").join("golden").join(format!("{id}.md"));
        std::fs::copy(&fixture, golden.join(format!("{id}.md"))).expect("copy fixture");
    }

    let mut o = opts(&store, &artifacts, 2);
    o.golden_dir = golden.clone();
    let cold = run_all(&o).expect("cold run");
    assert_eq!(cold.stats.executed.len(), IDS.len());

    let path = golden.join(format!("{victim}.md"));
    let mut bytes = std::fs::read(&path).expect("read fixture");
    bytes.extend_from_slice(b"\n<!-- regenerated -->\n");
    std::fs::write(&path, &bytes).expect("rewrite fixture");
    (o, cold, vec![store, golden, artifacts])
}

/// Golden-regen regression: changing a golden fixture's bytes changes
/// that experiment's key, so the next `xp all` re-executes exactly
/// that experiment instead of serving the pre-regen cached report.
#[test]
fn regenerated_golden_fixture_invalidates_the_cached_report() {
    let victim = "ex42";
    let (o, cold, dirs) = cold_then_regen("regen", victim);

    let regen = run_all(&o).expect("post-regen run");
    assert_eq!(
        regen.stats.executed,
        vec![victim.to_string()],
        "post-regen run must re-execute exactly the regenerated experiment: {}",
        regen.explain
    );
    assert_eq!(regen.stats.stale, 1, "the stale experiment went undetected: {}", regen.explain);
    assert_eq!(
        report_text(&regen.stdout),
        report_text(&cold.stdout),
        "report bytes changed with only a fixture regen"
    );

    // And the store settles: the next run is fully warm again.
    let warm = run_all(&o).expect("settled run");
    assert_eq!(warm.stats.hit, IDS.len(), "store did not settle post-regen");
    assert!(warm.stats.executed.is_empty());

    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// After a fixture regen and the run that re-keys it, `xp gc` removes
/// exactly the regenerated experiment's pre-regen artifacts (its run,
/// report and figures), keeps every current entry, and leaves the next
/// run 100% hits. Pointed at a missing golden directory first, it
/// fails and removes nothing.
#[test]
fn gc_after_a_fixture_regen_removes_exactly_the_stale_artifacts() {
    let victim = "ex42";
    let (o, cold, dirs) = cold_then_regen("gc", victim);
    run_all(&o).expect("post-regen run");

    // The victim's pre-regen digest, from the cold run's explain line.
    let label = format!("run/{victim} @");
    let line = cold.explain.lines().find(|l| l.contains(&label)).expect("victim explain line");
    let stale = line.split('@').nth(1).expect("digest").trim();
    let mut want = vec![format!("run/{victim}@{stale}"), format!("report/{victim}@{stale}")];
    want.extend(tables_for(victim).iter().map(|t| format!("figure/{victim}:{t}@{stale}")));
    want.sort();

    let missing = o.golden_dir.join("missing");
    let err = run_gc(&o.store_root, &missing).expect_err("gc without fixtures must fail");
    assert!(err.contains(&missing.display().to_string()), "error must name the dir: {err}");

    let report = run_gc(&o.store_root, &o.golden_dir).expect("gc");
    assert_eq!(report.removed, want, "gc must reap exactly the pre-regen artifacts");
    let current: usize = IDS.iter().map(|id| 2 + tables_for(id).len()).sum();
    assert_eq!(report.kept, current, "gc must keep every current entry");

    let warm = run_all(&o).expect("post-gc run");
    assert_eq!(warm.stats.hit, IDS.len(), "post-gc run was not 100% hits: {}", warm.explain);
    assert!(warm.stats.executed.is_empty());

    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}
