//! Store-backed `xp all`: look every experiment up in the
//! content-addressed store under one key, re-run only the experiments
//! that miss, serve the rest byte-identically from cache.
//!
//! One experiment files all of its artifacts under one key:
//!
//! ```text
//! run/<id>  report/<id>  figure/<id>:<table> ...   @ digest(key)
//! ```
//!
//! The key is the provenance stamp the report carries (seed, fault
//! ladder digest, config digest with the calibration constants,
//! toolchain, rev), plus the digest of the experiment's golden fixture,
//! so a regenerated fixture never leaves a pre-regen report
//! serveable, plus, for the fault experiments, one `severity/<rung>`
//! component per severity-ladder rung, so `--explain` names the rung a
//! targeted `APPLES_SEVERITY_OVERRIDE` moved
//! (`severity/moderate: 0.5 -> 0.55`). An experiment re-runs when any
//! of its artifacts is not a hit. Cached stdout is built from stored
//! payloads with the same formatting as fresh renders, so a warm run
//! is byte-identical to a cold one — the CI `== store ==` stage `cmp`s
//! them.

use crate::experiments::{experiment_provenance, run, uses_faults, ALL_IDS};
use crate::pool::Pool;
use crate::report::ExperimentReport;
use crate::scenarios::severity_ladder;
use crate::wallclock::WallClock;
use apples_core::digest::{fnv1a_hex, CacheKey};
use apples_obs::Provenance;
use apples_store::{GcReport, Lookup, Store};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Options for one store-backed suite invocation.
#[derive(Debug, Clone)]
pub struct XpAllOptions {
    /// Experiment ids to run, in request (output) order.
    pub ids: Vec<String>,
    /// Treat every experiment as a miss: re-run everything, refresh the
    /// store.
    pub no_cache: bool,
    /// Store root directory.
    pub store_root: PathBuf,
    /// Directory holding `tests/golden/<id>.md` fixtures (their digest
    /// is part of each experiment's key).
    pub golden_dir: PathBuf,
    /// Write each figure CSV under this directory.
    pub csv_dir: Option<PathBuf>,
    /// Write each markdown report under this directory.
    pub md_dir: Option<PathBuf>,
    /// Worker count for the execution pool and for the maps experiments
    /// fan out on it (`None` = one per core).
    pub threads: Option<usize>,
}

impl XpAllOptions {
    /// Defaults for a set of ids: default store root, repo-layout
    /// golden dir, no artifact dirs.
    pub fn for_ids(ids: Vec<String>) -> XpAllOptions {
        XpAllOptions {
            ids,
            no_cache: false,
            store_root: Store::default_root(),
            golden_dir: PathBuf::from("tests").join("golden"),
            csv_dir: None,
            md_dir: None,
            threads: None,
        }
    }
}

/// Cache statistics for one invocation, one decision per experiment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Experiments whose every artifact was served from cache.
    pub hit: usize,
    /// Experiments whose key changed (diff available in the explain
    /// text).
    pub stale: usize,
    /// Experiments with an artifact that has no cached entry.
    pub miss: usize,
    /// Experiments with an artifact that failed footer validation.
    pub torn: usize,
    /// Experiment ids that actually re-ran, in request order.
    pub executed: Vec<String>,
}

/// Result of a store-backed suite invocation.
#[derive(Debug, Clone)]
pub struct XpAllOutcome {
    /// Exactly what the non-store `xp all` would print to stdout
    /// (reports in request order plus `wrote <path>` lines).
    pub stdout: String,
    /// The `--explain` text: one line per experiment plus a summary
    /// line.
    pub explain: String,
    /// Hit/miss accounting.
    pub stats: StoreStats,
}

/// Table names each experiment publishes, so a warm run can look its
/// figures up without running anything. Checked against the actual
/// reports at execution time, so catalog rot is a hard error, not a
/// silent cache-shape drift.
pub fn tables_for(id: &str) -> &'static [&'static str] {
    match id {
        "table1" => &["table1"],
        "fig1a" => &["fig1a"],
        "fig1b" => &["fig1b"],
        "fig2" => &["fig2-grid"],
        "fig3" => &["fig3-trajectory"],
        "ex42" => &["ex42-points"],
        "ex421" => &["ex421-points"],
        "ex43" => &["ex43-latency"],
        "crossover" => &["crossover-sweep"],
        "ips" => &["ips-points"],
        "multimetric" => &["multimetric-axes"],
        "efficiency" => &["efficiency-ranking"],
        "rfc2544" => &["rfc2544-sweep"],
        "multihost" => &["multihost-curve"],
        "batching" => &["batching-sweep"],
        "sensitivity" => &["sensitivity-sweep"],
        "telemetry" => &["stage-telemetry"],
        "ablation-scaling" => &["scaling-generosity"],
        "ablation-jfi" => &["jfi-vs-cores"],
        "ablation-rss" => &["rss-ablation"],
        "ablation-noise" => &["noise-samples"],
        "robustness-frontier" => &["frontier-vs-severity"],
        "robustness-verdict" => &["verdict-vs-severity"],
        "robustness-crossover" => &["crossover-vs-faults"],
        // ex41, checklist, ablation-coverage publish prose only.
        _ => &[],
    }
}

/// `(kind, name)` of every artifact experiment `id` publishes, in
/// [`render_artifacts`] order: its run, its report, one figure per
/// table.
fn artifacts(id: &str) -> Vec<(&'static str, String)> {
    let mut out = vec![("run", id.to_owned()), ("report", id.to_owned())];
    out.extend(tables_for(id).iter().map(|table| ("figure", format!("{id}:{table}"))));
    out
}

/// A fresh report's artifact bytes in [`artifacts`] order: the
/// plain-text render, the markdown render, one CSV per table.
fn render_artifacts(report: &ExperimentReport) -> Vec<String> {
    let mut out = vec![report.render(), report.render_markdown()];
    out.extend(report.tables.iter().map(|(_, csv)| csv.to_string()));
    out
}

/// Digest of the experiment's golden fixture (`absent` when the file
/// does not exist): regenerating a fixture re-keys the experiment.
fn golden_component(golden_dir: &Path, id: &str) -> String {
    match std::fs::read(golden_dir.join(format!("{id}.md"))) {
        Ok(bytes) => fnv1a_hex(&bytes),
        Err(_) => "absent".to_owned(),
    }
}

/// One experiment's store key from its inputs: the provenance cache
/// key, the golden-fixture digest, then one `severity/<rung>`
/// component per ladder rung (none for an empty ladder).
fn experiment_key(provenance: &Provenance, golden: &str, ladder: &[(String, f64)]) -> CacheKey {
    let mut key = provenance.cache_key().with("golden", golden);
    for (rung, severity) in ladder {
        key.push(format!("severity/{rung}"), format!("{severity:?}"));
    }
    key
}

/// The key every artifact of experiment `id` is filed under.
fn key_for(id: &str, golden_dir: &Path) -> CacheKey {
    let ladder = if uses_faults(id) { severity_ladder(id) } else { Vec::new() };
    experiment_key(&experiment_provenance(id), &golden_component(golden_dir, id), &ladder)
}

/// One experiment resolved against the store.
struct Resolved {
    id: String,
    key: CacheKey,
    /// [`Lookup::Hit`] when every artifact hit, else the first non-hit
    /// artifact's decision.
    decision: Lookup,
    /// The cached artifacts in [`artifacts`] order; empty unless a hit.
    cached: Vec<Vec<u8>>,
}

/// Looks up every artifact of `id` under its key. With `no_cache`
/// the experiment resolves as a miss without touching the store.
fn resolve(store: &Store, id: &str, golden_dir: &Path, no_cache: bool) -> Resolved {
    let key = key_for(id, golden_dir);
    let mut cached = Vec::new();
    let mut decision = if no_cache { Lookup::Miss } else { Lookup::Hit };
    for (kind, name) in artifacts(id) {
        if decision != Lookup::Hit {
            break;
        }
        match store.lookup(kind, &name, &key) {
            (Lookup::Hit, Some(payload)) => cached.push(payload),
            (Lookup::Torn(why), _) => decision = Lookup::Torn(format!("{kind}/{name}: {why}")),
            (other, _) => decision = other,
        }
    }
    if decision != Lookup::Hit {
        cached.clear();
    }
    Resolved { id: id.to_owned(), key, decision, cached }
}

/// Runs the suite through the store. Returns the stdout/explain text
/// and stats; the caller decides where to print them.
pub fn run_all(opts: &XpAllOptions) -> Result<XpAllOutcome, String> {
    let clock = WallClock::start();
    let unknown: Vec<&String> =
        opts.ids.iter().filter(|id| !ALL_IDS.contains(&id.as_str())).collect();
    if let Some(first) = unknown.first() {
        return Err(format!("unknown experiment '{first}' (try --list)"));
    }

    let store = Store::open(&opts.store_root);
    let resolved: Vec<Resolved> =
        opts.ids.iter().map(|id| resolve(&store, id, &opts.golden_dir, opts.no_cache)).collect();
    let dirty: Vec<String> =
        resolved.iter().filter(|r| r.decision != Lookup::Hit).map(|r| r.id.clone()).collect();

    // Re-run dirty experiments on the pool; results come back in order.
    let pool = opts.threads.map_or_else(Pool::new, Pool::with_workers);
    let fresh = pool.map(dirty.clone(), |id| {
        let report = run(&id, pool);
        (id, report)
    });
    let mut fresh_by_id = Vec::new();
    for (id, report) in fresh {
        let report = report.ok_or_else(|| format!("experiment {id} vanished mid-run"))?;
        let actual: Vec<&str> = report.tables.iter().map(|(n, _)| n.as_str()).collect();
        if actual != tables_for(&id) {
            return Err(format!(
                "table catalog drift for {id}: report publishes {actual:?} but the store \
                 looks up {:?} — update xpall::tables_for",
                tables_for(&id)
            ));
        }
        fresh_by_id.push((id, render_artifacts(&report)));
    }

    // Every artifact's text, fresh or cached, in request order; publish
    // the fresh ones under their experiment's key.
    let mut texts = Vec::with_capacity(resolved.len());
    for r in &resolved {
        let fresh = fresh_by_id.iter().find(|(id, _)| *id == r.id);
        let artifact_texts = match fresh {
            Some((_, rendered)) => {
                for ((kind, name), text) in artifacts(&r.id).iter().zip(rendered) {
                    store
                        .publish(kind, name, &r.key, text.as_bytes())
                        .map_err(|e| format!("cannot publish {kind}/{name}: {e}"))?;
                }
                rendered.clone()
            }
            None => r
                .cached
                .iter()
                .map(|bytes| String::from_utf8(bytes.clone()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| format!("a cached artifact of {} is not UTF-8", r.id))?,
        };
        texts.push(artifact_texts);
    }

    // Assemble stdout in request order, byte-identical whether a piece
    // came from a fresh render or the cache.
    for dir in [&opts.csv_dir, &opts.md_dir].into_iter().flatten() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut stdout = String::new();
    for (r, artifact_texts) in resolved.iter().zip(&texts) {
        let [run_text, md_text, csv_texts @ ..] = artifact_texts.as_slice() else {
            return Err(format!("{}: run or report artifact missing", r.id));
        };
        stdout.push_str(run_text);
        stdout.push('\n');
        if let Some(dir) = &opts.csv_dir {
            for (table, csv_text) in tables_for(&r.id).iter().zip(csv_texts) {
                let path = dir.join(format!("{table}.csv"));
                std::fs::write(&path, csv_text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                stdout.push_str(&format!("wrote {}\n", path.display()));
            }
        }
        if let Some(dir) = &opts.md_dir {
            let path = dir.join(format!("{}.md", r.id));
            std::fs::write(&path, md_text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            stdout.push_str(&format!("wrote {}\n", path.display()));
        }
    }

    let count = |tag: &str| resolved.iter().filter(|r| r.decision.tag() == tag).count();
    let stats = StoreStats {
        hit: count("hit"),
        stale: count("stale"),
        miss: count("miss"),
        torn: count("torn"),
        executed: dirty,
    };
    let mut explain = String::new();
    for r in &resolved {
        explain.push_str(&format!("  {:<5} run/{} @{}", r.decision.tag(), r.id, r.key.digest()));
        match &r.decision {
            Lookup::Stale(diff) => {
                let parts: Vec<String> = diff.iter().map(|d| d.render()).collect();
                explain.push_str(&format!(" ({})", parts.join(", ")));
            }
            Lookup::Torn(why) => explain.push_str(&format!(" ({why})")),
            Lookup::Hit | Lookup::Miss => {}
        }
        explain.push('\n');
    }
    explain.push_str(&format!(
        "store[{}]: {} hit, {} stale, {} miss, {} torn of {} experiments; re-ran {}/{} \
         experiments in {} ms\n",
        store.root().display(),
        stats.hit,
        stats.stale,
        stats.miss,
        stats.torn,
        resolved.len(),
        stats.executed.len(),
        resolved.len(),
        clock.elapsed_ms() as u64,
    ));
    Ok(XpAllOutcome { stdout, explain, stats })
}

/// `xp gc`: remove store entries no experiment's current key reaches
/// (plus abandoned tmp files). Fails, removing nothing, when
/// `golden_dir` is not a directory: every fixture would read as
/// `absent`, so no current key would match a stored one.
pub fn run_gc(store_root: &Path, golden_dir: &Path) -> Result<GcReport, String> {
    if !golden_dir.is_dir() {
        return Err(format!("golden directory {} not found", golden_dir.display()));
    }
    let mut expected = BTreeSet::new();
    for id in ALL_IDS {
        let digest = key_for(id, golden_dir).digest();
        for (kind, name) in artifacts(id) {
            expected.insert(format!("{kind}/{name}@{digest}"));
        }
    }
    Store::open(store_root).gc(&expected).map_err(|e| format!("gc failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::SEVERITY_LADDER;

    #[test]
    fn catalog_matches_what_every_experiment_actually_publishes() {
        for id in ALL_IDS {
            let report = run(id, Pool::new()).expect("known id");
            let actual: Vec<&str> = report.tables.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(actual, tables_for(id), "tables_for({id}) is stale");
        }
    }

    /// Flipping one rung's severity, then the golden fixture's bytes,
    /// changes the key, and the diff names exactly that component.
    #[test]
    fn each_key_input_flip_is_named_in_the_diff() {
        let id = "robustness-verdict";
        let dir = std::env::temp_dir().join(format!("apples-xpall-key-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp golden dir");
        let fixture = dir.join(format!("{id}.md"));
        std::fs::write(&fixture, "fixture\n").expect("write fixture");
        let provenance = experiment_provenance(id);
        let ladder: Vec<(String, f64)> =
            SEVERITY_LADDER.iter().map(|&(rung, s)| (rung.to_owned(), s)).collect();
        let golden = golden_component(&dir, id);
        let base = experiment_key(&provenance, &golden, &ladder);

        let mut moved = ladder.clone();
        for (rung, severity) in &mut moved {
            if rung == "moderate" {
                *severity = 0.55;
            }
        }
        let severity_flip = experiment_key(&provenance, &golden, &moved);
        std::fs::write(&fixture, "fixture, regenerated\n").expect("rewrite fixture");
        let golden_flip = experiment_key(&provenance, &golden_component(&dir, id), &ladder);
        let _ = std::fs::remove_dir_all(&dir);

        for (flipped, component) in
            [(&severity_flip, "severity/moderate"), (&golden_flip, "golden")]
        {
            assert_ne!(flipped.digest(), base.digest(), "{component} flip kept the key");
            let diff = flipped.diff(&base);
            let names: Vec<&str> = diff.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(names, [component], "{diff:?}");
        }
        assert_eq!(severity_flip.diff(&base)[0].render(), "severity/moderate: 0.5 -> 0.55");
    }

    #[test]
    fn unknown_id_is_an_error() {
        let opts = XpAllOptions::for_ids(vec!["nope".to_owned()]);
        assert!(run_all(&opts).unwrap_err().contains("unknown experiment"));
    }
}
