//! `xp`: the experiment runner.
//!
//! ```text
//! xp all                 # run every experiment (store-cached)
//! xp fig3 ex42           # run specific experiments
//! xp --csv-dir results all   # also write each CSV series to disk
//! xp --md-dir reports all    # also write markdown reports to disk
//! xp --threads 1 all     # force a serial schedule (results identical)
//! xp --no-cache all      # ignore the store, re-run everything
//! xp --explain all       # per-node hit/stale/miss/torn to stderr
//! xp --store-dir DIR all # store root (default results/store or
//!                        # $APPLES_STORE_DIR)
//! xp gc                  # drop store entries no current key reaches
//! xp --list              # list experiment ids
//! xp bench               # micro-benchmark; writes BENCH_simnet.json
//! xp bench --out x.json  # ... to a chosen path
//! xp bench --quick       # ~10x shorter runs (CI perf-sanity)
//! xp bench --faults      # add the fault-injection robustness section
//! xp bench --faults --replications 9
//!                        # ... with 9 replications per severity
//! xp bench --baseline reports/baseline.json --strict
//!                        # exit nonzero on identity break or a CI-vs-CI
//!                        # regression past the resolved max_drop
//! xp bench --check-obs reports/obs_overhead.txt
//!                        # exit 1 if observability overhead exceeds ceiling
//! xp bench --export-baseline reports/baseline.json
//!                        # dump per-scenario events/s + bootstrap CI
//! xp run smartnic        # one scenario, unobserved reference + observed
//!                        # run; summary to stdout, exit 1 unless the
//!                        # observed run is bit-identical to the reference
//! xp run smartnic --severity 0.5 --trace trace.json
//!                        # ... plus the Chrome trace_event file
//! xp run cluster --profile prof.folded
//!                        # folded-stack (flamegraph) profile of the
//!                        # engine phases
//! ```

use apples_bench::experiments::ALL_IDS;
use apples_bench::xpall::{run_all, run_gc, XpAllOptions};
use apples_store::Store;
use std::path::PathBuf;

/// Removes `flag` from `args`; true when it was there.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let pos = args.iter().position(|a| a == flag);
    pos.map(|pos| args.remove(pos)).is_some()
}

fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    args.remove(pos);
    if pos < args.len() {
        Some(args.remove(pos))
    } else {
        eprintln!("{flag} requires an argument");
        std::process::exit(2);
    }
}

/// Takes `flag`'s value and parses it with `parse`, which returns `None`
/// for a value outside the flag's domain; exits 2 naming `expected` then.
fn parse_flag<T>(
    args: &mut Vec<String>,
    flag: &str,
    expected: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    let raw = take_flag_value(args, flag)?;
    let value = parse(&raw);
    if value.is_none() {
        eprintln!("{flag} requires {expected}, got '{raw}'");
        std::process::exit(2);
    }
    value
}

/// `xp run`: run one scenario unobserved and observed, write the
/// requested artifacts, print the summary, and exit 1 unless the
/// observed run matched the reference.
fn run_scenario_cmd(mut args: Vec<String>) -> ! {
    use apples_bench::runcmd::{run, RunOptions};
    use apples_bench::scenarios::SCENARIOS;
    use apples_obs::observer::DEFAULT_TRACE_CAPACITY;

    let ids = SCENARIOS.iter().map(|&(id, _)| id).collect::<Vec<_>>().join(", ");
    let usage = || -> ! {
        eprintln!(
            "usage: xp run <scenario> [--severity S] [--seed N] \
             [--trace FILE [--ring EVENTS]] [--profile FILE]"
        );
        eprintln!("scenarios: {ids}");
        std::process::exit(2);
    };
    let trace = take_flag_value(&mut args, "--trace").map(PathBuf::from);
    let profile = take_flag_value(&mut args, "--profile").map(PathBuf::from);
    let severity = parse_flag(&mut args, "--severity", "a number in [0, 1]", |s| {
        s.parse::<f64>().ok().filter(|v| (0.0..=1.0).contains(v))
    });
    let seed = parse_flag(&mut args, "--seed", "an unsigned integer", |s| s.parse().ok());
    let ring = parse_flag(&mut args, "--ring", "a positive integer", |s| {
        s.parse::<usize>().ok().filter(|&n| n > 0)
    });
    // `--ring` sizes the trace: a usage error without `--trace`.
    let dangling = ring.is_some() && trace.is_none();
    if dangling || args.len() != 1 || args[0].starts_with("--") {
        usage();
    }
    let opts = RunOptions {
        scenario: args.remove(0),
        severity: severity.unwrap_or(0.0),
        seed: seed.unwrap_or(1),
        trace_ring: trace.is_some().then(|| ring.unwrap_or(DEFAULT_TRACE_CAPACITY)),
    };
    let Some(result) = run(&opts) else {
        eprintln!("unknown scenario '{}' (choose from: {ids})", opts.scenario);
        std::process::exit(2);
    };
    for (path, body) in [(trace, result.chrome_json.as_deref()), (profile, Some(&result.folded))] {
        if let (Some(path), Some(body)) = (path, body) {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("wrote {}", path.display());
        }
    }
    print!("{}", result.summary);
    std::process::exit(if result.passed { 0 } else { 1 });
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("run") {
        args.remove(0);
        run_scenario_cmd(args);
    }

    if let Some(verb @ ("trace" | "profile" | "sanitize")) = args.first().map(String::as_str) {
        eprintln!("'xp {verb}' is now 'xp run <scenario> [--trace FILE] [--profile FILE]'");
        std::process::exit(2);
    }

    if args.first().map(String::as_str) == Some("lint") {
        eprintln!("'xp lint' is now 'cargo clippy --workspace --all-targets -- -D warnings'");
        std::process::exit(2);
    }

    if args.first().map(String::as_str) == Some("gc") {
        args.remove(0);
        let store_root = take_flag_value(&mut args, "--store-dir")
            .map_or_else(Store::default_root, PathBuf::from);
        if !args.is_empty() {
            eprintln!("usage: xp gc [--store-dir DIR]");
            std::process::exit(2);
        }
        match run_gc(&store_root, &PathBuf::from("tests").join("golden")) {
            Ok(report) => {
                for path in &report.removed {
                    println!("removed {path}");
                }
                println!(
                    "gc[{}]: kept {} entries, removed {}",
                    store_root.display(),
                    report.kept,
                    report.removed.len()
                );
                return;
            }
            Err(e) => {
                eprintln!("xp gc: {e}");
                std::process::exit(1);
            }
        }
    }

    if args.first().map(String::as_str) == Some("bench") {
        args.remove(0);
        let out = take_flag_value(&mut args, "--out")
            .map_or_else(|| PathBuf::from("BENCH_simnet.json"), PathBuf::from);
        let obs_path = take_flag_value(&mut args, "--check-obs").map(PathBuf::from);
        let baseline_path = take_flag_value(&mut args, "--export-baseline").map(PathBuf::from);
        let compare_baseline = take_flag_value(&mut args, "--baseline").map(PathBuf::from);
        // None = flag absent: per-entry and file-level defaults from the
        // baseline file apply, then DEFAULT_MAX_DROP.
        let max_drop = parse_flag(&mut args, "--max-drop", "a fraction in [0, 1)", |s| {
            s.parse::<f64>().ok().filter(|d| (0.0..1.0).contains(d))
        });
        let replications = parse_flag(&mut args, "--replications", "a positive integer", |s| {
            s.parse::<usize>().ok().filter(|&n| n > 0)
        })
        .unwrap_or(0);
        let quick = take_switch(&mut args, "--quick");
        let faults = take_switch(&mut args, "--faults");
        let strict = take_switch(&mut args, "--strict");
        if !args.is_empty() {
            eprintln!(
                "usage: xp bench [--quick] [--faults] [--replications N] [--out FILE] \
                 [--check-obs CEILING_FILE] [--export-baseline FILE] \
                 [--baseline FILE [--strict] [--max-drop F]]"
            );
            std::process::exit(2);
        }
        // Resolve the comparison baseline *before* the (minutes-long)
        // bench run: a missing or malformed file should fail in
        // milliseconds with its actionable message, not after the work.
        let baseline_entries = compare_baseline.as_ref().map(|compare_path| {
            let src = match std::fs::read_to_string(compare_path) {
                Ok(src) => src,
                Err(e) => {
                    eprintln!(
                        "xp bench: no baseline at {} ({e}).\n\
                         Record one from a known-good build first:\n\
                         \n    xp bench --export-baseline {}\n\
                         \nthen re-run with --baseline to gate against it.",
                        compare_path.display(),
                        compare_path.display()
                    );
                    std::process::exit(3);
                }
            };
            match apples_bench::baseline::parse_baseline(&src) {
                Ok(entries) => entries,
                Err(e) => {
                    eprintln!(
                        "xp bench: malformed baseline {}: {e}\n\
                         Re-export it with: xp bench --export-baseline {}",
                        compare_path.display(),
                        compare_path.display()
                    );
                    std::process::exit(4);
                }
            }
        });
        let opts = apples_bench::microbench::BenchOptions { quick, faults, replications };
        let (json, summary) = apples_bench::microbench::run_with_summary(&opts);
        if let Err(e) = std::fs::write(&out, json.render_pretty()) {
            eprintln!("cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
        println!("{}", json.render_pretty());
        println!("wrote {}", out.display());
        if let Some(baseline_path) = baseline_path {
            let baseline = apples_bench::microbench::baseline_json(&summary, quick);
            if let Err(e) = std::fs::write(&baseline_path, baseline.render_pretty()) {
                eprintln!("cannot write {}: {e}", baseline_path.display());
                std::process::exit(1);
            }
            println!("wrote {}", baseline_path.display());
        }
        if let (Some(compare_path), Some(baseline)) = (compare_baseline, baseline_entries) {
            let failures = apples_bench::baseline::check(&summary, &baseline, max_drop);
            if failures.is_empty() {
                println!(
                    "baseline gate passed: {} scenarios within tolerance of {}, all results \
                     identical",
                    baseline.entries.len(),
                    compare_path.display()
                );
            } else {
                for f in &failures {
                    eprintln!("baseline gate: {f}");
                }
                if strict {
                    eprintln!("xp bench: {} baseline gate failure(s)", failures.len());
                    std::process::exit(2);
                }
                eprintln!("(advisory: pass --strict to make this fatal)");
            }
        }
        if let Some(obs_path) = obs_path {
            let ceiling_text = match std::fs::read_to_string(&obs_path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read obs ceiling file {}: {e}", obs_path.display());
                    std::process::exit(1);
                }
            };
            let failures = apples_bench::microbench::check_obs_overhead(&summary, &ceiling_text);
            if failures.is_empty() {
                println!(
                    "observability OK: {:.3}x span-profiler overhead ({}), zero cost when off",
                    summary.obs_overhead_ratio,
                    apples_bench::microbench::overhead_cis(&summary)
                );
            } else {
                for f in &failures {
                    eprintln!("observability FAILED: {f}");
                }
                std::process::exit(1);
            }
        }
        return;
    }

    let csv_dir = take_flag_value(&mut args, "--csv-dir").map(PathBuf::from);
    let md_dir = take_flag_value(&mut args, "--md-dir").map(PathBuf::from);
    let store_root =
        take_flag_value(&mut args, "--store-dir").map_or_else(Store::default_root, PathBuf::from);
    let threads = parse_flag(&mut args, "--threads", "a positive integer", |s| {
        s.parse::<usize>().ok().filter(|&n| n > 0)
    });
    let no_cache = take_switch(&mut args, "--no-cache");
    let explain = take_switch(&mut args, "--explain");

    if args.iter().any(|a| a == "--list") {
        for id in ALL_IDS {
            println!("{id}");
        }
        return;
    }

    if args.is_empty() {
        eprintln!(
            "usage: xp [--csv-dir DIR] [--md-dir DIR] [--threads N] [--store-dir DIR] \
             [--no-cache] [--explain] [--list] \
             <experiment-id>... | all | bench | gc | run"
        );
        eprintln!("experiments: {}", ALL_IDS.join(", "));
        std::process::exit(2);
    }

    let ids: Vec<String> = if args.iter().any(|a| a == "all") {
        ALL_IDS.iter().map(|&s| s.to_owned()).collect()
    } else {
        args
    };

    // Experiments are independent and deterministic: the store driver
    // plans the DAG, re-runs only dirty experiments on the pool, and
    // assembles stdout in request order — byte-identical whether a
    // report came from a fresh run or the cache.
    let opts = XpAllOptions {
        ids,
        no_cache,
        store_root,
        golden_dir: PathBuf::from("tests").join("golden"),
        csv_dir,
        md_dir,
        threads,
    };
    match run_all(&opts) {
        Ok(outcome) => {
            print!("{}", outcome.stdout);
            if explain {
                eprint!("{}", outcome.explain);
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
