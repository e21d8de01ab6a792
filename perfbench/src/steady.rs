//! Steadiness report: runs each workload repeatedly, each run a fresh
//! process with its own seed, and prints for every end-to-end metric
//! its median, quartiles and spread against the metric's bound.
//!
//! The spread is the distance between the first and third quartile as
//! a share of the median. A metric is steady when its spread stays
//! below a third of its bound, and too noisy when it exceeds the bound.

use crate::metrics::{value_in, END_TO_END};
use crate::stats::{quantile, quartiles};
use crate::workloads::Workload;
use std::process::Command;

/// Runs per workload, each on its own seed.
const RUNS: u64 = 10;

fn host_facts() -> String {
    // lint: allow(D3, reason = "reads the host's core count for the report; spawns no thread")
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load: Vec<&str> = load.split_whitespace().take(3).collect();
    format!(
        "nproc {nproc}, {}-{}, load average {}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        if load.is_empty() { "unknown".to_owned() } else { load.join(" ") }
    )
}

/// Runs [`RUNS`] child processes per workload (seeds `first_seed`,
/// `first_seed + 1`, …) and prints the report. Returns false when a run
/// failed or a metric's spread exceeds its bound.
pub fn report(workloads: &[&Workload], seconds: u64, first_seed: u64) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return false;
        }
    };
    println!("host: {}", host_facts());
    println!("{RUNS} runs x {seconds} s per workload, seeds {first_seed}..");
    let mut ok = true;
    for w in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for seed in first_seed..first_seed + RUNS {
            let out = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output();
            let stdout = match out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!("{} seed {seed}: exit {}", w.name, o.status);
                    ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("{} seed {seed}: {e}", w.name);
                    ok = false;
                    continue;
                }
            };
            let last = stdout.lines().last().unwrap_or_default();
            if !last.starts_with("{\"correct\": true,") {
                eprintln!("{} seed {seed}: incorrect run: {last}", w.name);
                ok = false;
            }
            let mut row = format!("  seed {seed:>6}:");
            for ((name, _, _), col) in END_TO_END.iter().zip(&mut values) {
                let v = value_in(last, name);
                row.push_str(&format!(
                    " {name} {}",
                    v.map_or("-".to_owned(), |v| format!("{v:.6}"))
                ));
                col.extend(v);
            }
            println!("{row}");
        }
        println!("{}", w.name);
        println!(
            "  {:<13}{:>12}{:>12}{:>12}{:>9}{:>8}  verdict",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for ((name, unit, bound), col) in END_TO_END.iter().zip(&values) {
            let (Some(median), Some([q1, _, q3])) = (quantile(col, 0.5), quartiles(col)) else {
                println!("  {name:<13} too few runs");
                ok = false;
                continue;
            };
            let spread = (q3 - q1) / median;
            let verdict = if spread < bound / 3.0 {
                "steady"
            } else if spread <= *bound {
                "within bound, above a third of it"
            } else {
                ok = false;
                "too noisy"
            };
            println!(
                "  {name:<13}{median:>12.6}{q1:>12.6}{q3:>12.6}{:>8.2}%{:>7.0}%  {verdict} ({unit})",
                100.0 * spread,
                100.0 * bound
            );
        }
    }
    println!("host after: {}", host_facts());
    ok
}
