//! `xp`: the experiment runner.
//!
//! ```text
//! xp all                 # run every experiment (store-cached)
//! xp fig3 ex42           # run specific experiments
//! xp --csv-dir results all   # also write each CSV series to disk
//! xp --md-dir reports all    # also write markdown reports to disk
//! xp --threads 1 all     # one worker, nested maps too (results identical)
//! xp --no-cache all      # ignore the store, re-run everything
//! xp --explain all       # per-experiment hit/stale/miss/torn to stderr
//! xp --store-dir DIR all # store root (default results/store)
//! xp gc                  # drop store entries no current key reaches;
//!                        # exit 1 unless run where tests/golden exists
//! xp --list              # list experiment ids
//! xp bench               # micro-benchmark; writes BENCH_simnet.json;
//!                        # exit 1 on an identity break or a fused
//!                        # ratio below 0.85
//! xp bench --out x.json  # ... to a chosen path
//! xp bench --quick       # shorter simulated windows (CI)
//! xp bench --check-obs reports/obs_overhead.txt
//!                        # ... and exit 1 if observability overhead
//!                        # exceeds the ceiling
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
        use apples_bench::microbench::{
            check_obs_overhead, gate, overhead_cis, run_with_summary, FUSED_SPEEDUP_MIN,
        };
        args.remove(0);
        let out = take_flag_value(&mut args, "--out")
            .map_or_else(|| PathBuf::from("BENCH_simnet.json"), PathBuf::from);
        let obs_path = take_flag_value(&mut args, "--check-obs").map(PathBuf::from);
        let quick = take_switch(&mut args, "--quick");
        if !args.is_empty() {
            eprintln!("usage: xp bench [--quick] [--out FILE] [--check-obs CEILING_FILE]");
            std::process::exit(2);
        }
        // Read the ceiling before the run: a missing file fails at once,
        // not after the work.
        let ceiling_text = obs_path.map(|path| match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read obs ceiling file {}: {e}", path.display());
                std::process::exit(1);
            }
        });
        let (json, summary) = run_with_summary(quick);
        if let Err(e) = std::fs::write(&out, json.render_pretty()) {
            eprintln!("cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
        println!("{}", json.render_pretty());
        println!("wrote {}", out.display());
        let mut failures = gate(&summary);
        if let Some(text) = &ceiling_text {
            failures.extend(check_obs_overhead(&summary, text));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("xp bench: {f}");
            }
            std::process::exit(1);
        }
        let ratios: Vec<String> =
            summary.fused_speedups.iter().map(|(name, r)| format!("{name} {r:.3}x")).collect();
        println!(
            "bench gate passed: all results identical; fused ratios {} (floor {FUSED_SPEEDUP_MIN})",
            ratios.join(", ")
        );
        if ceiling_text.is_some() {
            println!(
                "observability OK: {:.3}x span-profiler overhead ({}), zero cost when off",
                summary.obs_overhead_ratio,
                overhead_cis(&summary)
            );
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
    // looks each one up under its key, re-runs only dirty experiments
    // on the pool, and assembles stdout in request order —
    // byte-identical whether a report came from a fresh run or the
    // cache.
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
