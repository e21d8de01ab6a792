//! Engine benchmark: the host time of one op, which builds a real
//! deployment and makes one `Deployment::run` call, on three
//! real-deployment workloads. It is gated on the 10th percentile of op
//! time and of set-up time, with an outside-in breakdown by layer.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-cluster --seed 71 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones; `--steady` runs every workload repeatedly and reports each
//! end-to-end metric's spread against its bound. The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod check;
mod layers;
mod metrics;
mod ops;
mod stats;
mod steady;
mod workloads;

use apples_simnet::StageReport;
use metrics::{result_line, END_TO_END};
use ops::Ops;
use stats::quantile;
use std::process::ExitCode;
use workloads::{find, Workload, WORKLOADS};

/// Timed ops (or traced iterations) a run makes even when `--seconds`
/// runs out first.
const MIN_OPS: usize = 10;

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    steady: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: None, seconds: 30, trace: false, steady: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--steady" {
            args.steady = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value:?}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = Some(number()?),
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         perfbench --steady [--workload W] [--seed FIRST] [--seconds S]",
        names.join("|")
    )
}

/// Prints each traffic seed's simulated counts and output digest.
fn print_traffic(ops: &Ops) {
    for t in &ops.traffic {
        let Some(first) = &t.first else { continue };
        let sum = |f: fn(&StageReport) -> u64| -> u64 { first.stages.iter().map(f).sum() };
        println!(
            "traffic seed {}: {} arrivals, {} served, {} queue drops, {} policy drops, \
             {} fault drops, {} injected drops, {} corrupted, {} in flight, {:.3} Gbps, digest {}",
            t.seed,
            t.expect.stubs,
            sum(|s| s.served),
            sum(|s| s.queue_drops),
            sum(|s| s.policy_drops),
            sum(|s| s.fault_drops),
            first.injected_drops,
            first.corrupted,
            sum(|s| s.in_flight),
            first.throughput_bps / 1e9,
            check::digest(first)
        );
    }
}

/// One benchmark run; prints its report and returns the result line.
fn run(w: &'static Workload, seed: u64, seconds: u64, trace: bool) -> Result<String, String> {
    println!(
        "workload {} (from {}): seed {seed} (default {}, held out {}), window {} ms, warm-up {} ms",
        w.name,
        w.source,
        w.default.seed,
        w.held_out.seed,
        w.run_ns / 1_000_000,
        w.warmup_ns / 1_000_000
    );
    let mut ops = Ops::new(w, seed);
    let metrics: Vec<(&str, &str, f64)> = if trace {
        let breakdown = layers::traced_run(&mut ops, seconds, MIN_OPS);
        print_traffic(&ops);
        print!("{}", breakdown.table);
        metrics::PER_LAYER
            .iter()
            .zip(&breakdown.metrics)
            .map(|(&(name, unit, _), &(got, value))| {
                assert_eq!(name, got, "the layer table follows the catalog's order");
                (name, unit, value)
            })
            .collect()
    } else {
        let times = ops.timed_ops(seconds, MIN_OPS);
        print_traffic(&ops);
        let mut op_p10s = Vec::new();
        for (t, xs) in ops.traffic.iter().zip(&times) {
            let q = |p: f64| quantile(xs, p).unwrap_or(f64::NAN);
            println!(
                "traffic seed {}: {} timed ops, host ms per op p10 {:.3}, p50 {:.3}, p90 {:.3}",
                t.seed,
                xs.len(),
                q(0.1),
                q(0.5),
                q(0.9)
            );
            op_p10s.push(q(0.1));
        }
        let op_p10 = op_p10s.iter().sum::<f64>() / op_p10s.len() as f64;
        let setup = |p: f64| quantile(&ops.setup_s, p).unwrap_or(f64::NAN);
        println!(
            "set-up of {} traffic seeds, ms: p10 {:.3}, p50 {:.3}, p90 {:.3}",
            ops.setup_s.len(),
            setup(0.1) * 1e3,
            setup(0.5) * 1e3,
            setup(0.9) * 1e3
        );
        let setup_s = setup(0.1);
        let rss = ops::peak_rss_mib().ok_or("VmHWM is not readable from /proc/self/status")?;
        let values = [op_p10, setup_s, rss];
        END_TO_END.iter().zip(values).map(|(&(name, unit, _), v)| (name, unit, v)).collect()
    };
    let correct = ops.failed == 0 && metrics.iter().all(|m| m.2.is_finite());
    Ok(result_line(correct, ops.attempted, ops.failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.steady {
        let chosen: Vec<&Workload> = match &args.workload {
            Some(name) => find(name).into_iter().collect(),
            None => WORKLOADS.iter().collect(),
        };
        if chosen.is_empty() {
            eprintln!("unknown workload\n{}", usage());
            return ExitCode::from(2);
        }
        let first_seed = args.seed.unwrap_or(1);
        let ok = steady::report(&chosen, args.seconds, first_seed);
        return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    let Some(w) = args.workload.as_deref().and_then(find) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    match run(w, args.seed.unwrap_or(w.default.seed), args.seconds, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
