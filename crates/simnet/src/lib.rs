//! # apples-simnet
//!
//! A discrete-event packet-processing simulator with heterogeneous
//! device models — the measurement substrate for the fair-comparison
//! methodology.
//!
//! The paper's worked examples presuppose measurements from systems we
//! cannot build here (SmartNIC-accelerated firewalls, programmable-switch
//! preprocessing). This crate substitutes a simulator whose *shape*
//! matches those systems:
//!
//! - a [`engine::Engine`] executes a pipeline of queueing stages over a
//!   seeded packet workload (from `apples-workload`), in simulated
//!   nanoseconds;
//! - [`service`] provides the stage service models: CPU core pools
//!   running a network-function chain, SmartNIC core pools with NF
//!   offload, line-rate programmable-switch pipelines, and serializing
//!   links;
//! - [`nf`] implements the network functions themselves (ACL firewall,
//!   NAT, DPI with Aho–Corasick, and a count–min-sketch flow monitor),
//!   each with a cycle-cost model that determines its simulated service
//!   time;
//! - [`stats`] collects throughput, loss, a log-linear latency histogram,
//!   and per-flow byte counts (for Jain's index);
//! - [`system`] assembles named deployments (CPU-only host, SmartNIC
//!   offload, switch-preprocessed host), ties them to a power inventory
//!   from `apples-power`, and produces the `(performance, cost)`
//!   operating points consumed by `apples-core`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "tests pin exact results: a seeded run reproduces every float bit for bit"
    )
)]

pub mod engine;
pub mod fault;
pub mod nf;
pub mod packet;
pub mod sched;
pub mod service;
pub mod stats;
pub mod system;

pub use engine::{Engine, StageReport};
pub use fault::{FaultAction, FaultEvent, FaultPlan, FaultSpec, OutageSpec, SlowdownSpec};
pub use packet::Packet;
pub use sched::EventScheduler;
pub use stats::SinkStats;
pub use system::{Deployment, Measurement};
