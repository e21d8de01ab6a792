//! Store-backed `xp all`: plan the experiment DAG against the
//! content-addressed store, re-run only what changed, serve the rest
//! byte-identically from cache.
//!
//! The DAG per suite invocation (ROADMAP item 2):
//!
//! ```text
//! scenario/calibration ──┬─> run/<id> ──> report/<id> ──> figure/<id>:<table>
//! fault/<id>:<rung> ... ─┘        (fault nodes only for fault experiments)
//! ```
//!
//! One shared scenario node carries the calibration digest plus the
//! toolchain/rev environment; fault experiments additionally get one
//! node per severity-ladder rung (sweep expansion — a targeted
//! `APPLES_SEVERITY_OVERRIDE` moves exactly one rung of one experiment,
//! and therefore exactly that experiment's subtree). The run node's own
//! key is precisely the provenance stamp the report carries, plus the
//! digest of the experiment's golden fixture so `GOLDEN_REGEN=1` can
//! never leave a pre-regen report serveable. Cached stdout is built
//! from stored payloads with the same formatting as fresh renders, so a
//! warm run is byte-identical to a cold one — the CI `== store ==`
//! stage `cmp`s them.

use crate::experiments::{calibration_digest, experiment_provenance, run, uses_faults, ALL_IDS};
use crate::pool::Pool;
use crate::scenarios::severity_ladder;
use crate::wallclock::WallClock;
use apples_core::digest::{fnv1a_hex, CacheKey};
use apples_obs::Provenance;
use apples_simnet::fault::FaultSpec;
use apples_store::{plan, Dag, GcReport, Lookup, NodeId, Store};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Options for one store-backed suite invocation.
#[derive(Debug, Clone)]
pub struct XpAllOptions {
    /// Experiment ids to run, in request (output) order.
    pub ids: Vec<String>,
    /// Plan every node as a miss: re-run everything, refresh the store.
    pub no_cache: bool,
    /// Store root directory.
    pub store_root: PathBuf,
    /// Directory holding `tests/golden/<id>.md` fixtures (their digest
    /// is part of each run key).
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

/// Cache statistics for one invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total DAG nodes planned.
    pub nodes: usize,
    /// Nodes served from cache.
    pub hit: usize,
    /// Nodes whose key changed (diff available in the explain text).
    pub stale: usize,
    /// Nodes with no cached entry.
    pub miss: usize,
    /// Nodes whose entry failed footer validation.
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
    /// The `--explain` text: one line per node plus a summary line.
    pub explain: String,
    /// Hit/miss accounting.
    pub stats: StoreStats,
}

/// Table names each experiment publishes, used to build figure nodes
/// *before* running anything. Checked against the actual reports at
/// execution time, so catalog rot is a hard error, not a silent
/// cache-shape drift.
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

/// The store-facing nodes of one experiment id.
#[derive(Debug, Clone)]
struct IdNodes {
    id: String,
    faults: Vec<NodeId>,
    run: NodeId,
    report: NodeId,
    /// `(table name, node)` pairs, in report order.
    figures: Vec<(String, NodeId)>,
}

impl IdNodes {
    fn all(&self) -> Vec<NodeId> {
        let mut out = self.faults.clone();
        out.push(self.run);
        out.push(self.report);
        out.extend(self.figures.iter().map(|(_, n)| *n));
        out
    }
}

/// Digest of the experiment's golden fixture (`absent` when the file
/// does not exist): regenerating a fixture re-keys the whole subtree.
fn golden_component(golden_dir: &Path, id: &str) -> String {
    match std::fs::read(golden_dir.join(format!("{id}.md"))) {
        Ok(bytes) => fnv1a_hex(&bytes),
        Err(_) => "absent".to_owned(),
    }
}

/// Builds the suite DAG for `ids`. Shared upstream nodes (calibration,
/// and any identically-keyed sweep points) dedup via [`Dag::add`].
fn build_dag(ids: &[String], golden_dir: &Path) -> Result<(Dag, Vec<IdNodes>), String> {
    let mut dag = Dag::new();
    // Environment fields come through the same sanctioned path the
    // provenance stamp uses.
    let env = Provenance::new(0, "none", "none");
    let scenario = dag.add(
        "scenario",
        "calibration",
        CacheKey::new()
            .with("calibration", calibration_digest())
            .with("toolchain", env.toolchain.as_str())
            .with("rev", env.git_rev.as_str()),
        &[],
    )?;
    let mut per_id = Vec::with_capacity(ids.len());
    for id in ids {
        let mut faults = Vec::new();
        if uses_faults(id) {
            let points: Vec<(String, CacheKey)> = severity_ladder(id)
                .into_iter()
                .map(|(rung, s)| {
                    let spec = if s <= 0.0 {
                        "none".to_owned()
                    } else {
                        FaultSpec::at_severity(s).digest()
                    };
                    (rung, CacheKey::new().with("severity", format!("{s:?}")).with("spec", spec))
                })
                .collect();
            faults = dag.sweep("fault", id, &points, &[])?;
        }
        let mut run_parents = vec![scenario];
        run_parents.extend(faults.iter().copied());
        let run_key =
            experiment_provenance(id).cache_key().with("golden", golden_component(golden_dir, id));
        let run = dag.add("run", id.clone(), run_key, &run_parents)?;
        let report =
            dag.add("report", id.clone(), CacheKey::new().with("format", "md1"), &[run])?;
        let figures = tables_for(id)
            .iter()
            .map(|&table| {
                dag.add(
                    "figure",
                    format!("{id}:{table}"),
                    CacheKey::new().with("table", table).with("format", "csv1"),
                    &[report],
                )
                .map(|n| (table.to_owned(), n))
            })
            .collect::<Result<Vec<_>, _>>()?;
        per_id.push(IdNodes { id: id.clone(), faults, run, report, figures });
    }
    Ok((dag, per_id))
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
    let (dag, per_id) = build_dag(&opts.ids, &opts.golden_dir)?;
    let resolved = plan(&dag, &store, opts.no_cache);

    // An experiment is dirty when any node it owns is not a clean hit.
    let dirty: Vec<String> = per_id
        .iter()
        .filter(|nodes| nodes.all().iter().any(|n| resolved.nodes[n.0].decision != Lookup::Hit))
        .map(|nodes| nodes.id.clone())
        .collect();

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
                 DAG was built for {:?} — update xpall::tables_for",
                tables_for(&id)
            ));
        }
        fresh_by_id.push((id, report));
    }

    // Publish everything a dirty experiment produced, plus any non-hit
    // shared scenario/fault markers (their payload is their own key —
    // they exist to give the DAG addressable upstream structure).
    let effective: Vec<CacheKey> = resolved.nodes.iter().map(|n| n.effective.clone()).collect();
    let publish = |node: NodeId, payload: &[u8]| -> Result<(), String> {
        let n = dag.node(node);
        store
            .publish(&n.kind, &n.name, &effective[node.0], payload)
            .map(|_| ())
            .map_err(|e| format!("cannot publish {}: {e}", n.label()))
    };
    for planned in &resolved.nodes {
        let n = dag.node(NodeId(planned.index));
        if planned.decision != Lookup::Hit && (n.kind == "scenario" || n.kind == "fault") {
            publish(NodeId(planned.index), format!("{}\n", n.own.canonical()).as_bytes())?;
        }
    }
    for (id, report) in &fresh_by_id {
        let nodes =
            per_id.iter().find(|n| &n.id == id).ok_or_else(|| format!("no DAG nodes for {id}"))?;
        publish(nodes.run, report.render().as_bytes())?;
        publish(nodes.report, report.render_markdown().as_bytes())?;
        for ((_, csv), (_, node)) in report.tables.iter().zip(&nodes.figures) {
            publish(*node, csv.to_string().as_bytes())?;
        }
    }

    // Assemble stdout in request order, byte-identical whether a piece
    // came from a fresh render or the cache.
    let cached_payload = |node: NodeId| -> Result<String, String> {
        let planned = &resolved.nodes[node.0];
        let bytes = planned
            .payload
            .as_ref()
            .ok_or_else(|| format!("no cached payload for {}", dag.node(node).label()))?;
        String::from_utf8(bytes.clone())
            .map_err(|_| format!("cached {} is not UTF-8", dag.node(node).label()))
    };
    for dir in [&opts.csv_dir, &opts.md_dir].into_iter().flatten() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut stdout = String::new();
    for nodes in &per_id {
        let fresh_report = fresh_by_id.iter().find(|(id, _)| id == &nodes.id).map(|(_, r)| r);
        let run_text = match fresh_report {
            Some(report) => report.render(),
            None => cached_payload(nodes.run)?,
        };
        stdout.push_str(&run_text);
        stdout.push('\n');
        if let Some(dir) = &opts.csv_dir {
            for (table, node) in &nodes.figures {
                let csv_text = match fresh_report {
                    Some(report) => report
                        .tables
                        .iter()
                        .find(|(name, _)| name == table)
                        .map(|(_, csv)| csv.to_string())
                        .ok_or_else(|| format!("{}: table {table} missing", nodes.id))?,
                    None => cached_payload(*node)?,
                };
                let path = dir.join(format!("{table}.csv"));
                std::fs::write(&path, csv_text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                stdout.push_str(&format!("wrote {}\n", path.display()));
            }
        }
        if let Some(dir) = &opts.md_dir {
            let md_text = match fresh_report {
                Some(report) => report.render_markdown(),
                None => cached_payload(nodes.report)?,
            };
            let path = dir.join(format!("{}.md", nodes.id));
            std::fs::write(&path, md_text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            stdout.push_str(&format!("wrote {}\n", path.display()));
        }
    }

    let stats = StoreStats {
        nodes: resolved.nodes.len(),
        hit: resolved.count("hit"),
        stale: resolved.count("stale"),
        miss: resolved.count("miss"),
        torn: resolved.count("torn"),
        executed: dirty,
    };
    let explain = format!(
        "{}store[{}]: {} hit, {} stale, {} miss, {} torn of {} nodes; re-ran {}/{} \
         experiments in {} ms\n",
        resolved.render_explain(&dag),
        store.root().display(),
        stats.hit,
        stats.stale,
        stats.miss,
        stats.torn,
        stats.nodes,
        stats.executed.len(),
        per_id.len(),
        clock.elapsed_ms() as u64,
    );
    Ok(XpAllOutcome { stdout, explain, stats })
}

/// `xp gc`: rebuild the DAG over every experiment id and remove store
/// entries no current key can reach (plus abandoned tmp files).
pub fn run_gc(store_root: &Path, golden_dir: &Path) -> Result<GcReport, String> {
    let ids: Vec<String> = ALL_IDS.iter().map(|&s| s.to_owned()).collect();
    let (dag, _) = build_dag(&ids, golden_dir)?;
    let effective = dag.effective_keys();
    let expected: BTreeSet<String> = dag.entry_names(&effective).into_iter().collect();
    Store::open(store_root).gc(&expected).map_err(|e| format!("gc failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_what_every_experiment_actually_publishes() {
        for id in ALL_IDS {
            let report = run(id, Pool::new()).expect("known id");
            let actual: Vec<&str> = report.tables.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(actual, tables_for(id), "tables_for({id}) is stale");
        }
    }

    #[test]
    fn dag_shares_the_scenario_node_and_expands_fault_sweeps() {
        let ids: Vec<String> = ALL_IDS.iter().map(|&s| s.to_owned()).collect();
        let (dag, per_id) = build_dag(&ids, Path::new("tests/golden")).expect("builds");
        let fault_ids = ids.iter().filter(|id| uses_faults(id)).count();
        let rungs = severity_ladder("robustness-frontier").len();
        let figures: usize = ids.iter().map(|id| tables_for(id).len()).sum();
        // 1 scenario + per-experiment (run + report + figures) + fault
        // sweep nodes for the fault experiments.
        assert_eq!(dag.len(), 1 + ids.len() * 2 + figures + fault_ids * rungs, "node count");
        let scenario = dag.find("scenario", "calibration").expect("scenario node");
        for nodes in &per_id {
            assert_eq!(
                dag.node(nodes.run).parents.first(),
                Some(&scenario),
                "{}: run's first parent is the shared scenario",
                nodes.id
            );
        }
    }

    #[test]
    fn unknown_id_is_an_error() {
        let opts = XpAllOptions::for_ids(vec!["nope".to_owned()]);
        assert!(run_all(&opts).unwrap_err().contains("unknown experiment"));
    }
}
