//! # apples-bench
//!
//! The experiment harness: every table, figure, and worked example of
//! the paper, regenerated from the methodology engine plus the simulated
//! substrate, with paper-vs-measured output.
//!
//! Run `cargo run -p apples-bench --bin xp -- all` to execute every
//! experiment, or pass an experiment id (`table1`, `fig1a`, `fig1b`,
//! `fig2`, `fig3`, `ex41`, `ex42`, `ex421`, `ex43`, `crossover`,
//! `ablation-scaling`, `ablation-coverage`, `ablation-jfi`).

#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "tests pin exact results: a seeded run reproduces every float bit for bit"
    )
)]

pub mod experiments;
pub mod microbench;
pub mod pool;
pub mod report;
pub mod runcmd;
pub mod scenarios;
pub mod wallclock;
pub mod xpall;

pub use pool::Pool;
pub use report::ExperimentReport;
