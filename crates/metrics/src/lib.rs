//! # apples-metrics
//!
//! Typed quantities plus performance and cost metrics for fair comparisons
//! of heterogeneous systems, after *"Of Apples and Oranges: Fair
//! Comparisons in Heterogenous Systems Evaluation"* (HotNets 2023).
//!
//! The paper's §3 argues that cost metrics used in research evaluations
//! should have three properties:
//!
//! 1. **Context-independence** (Principle 1): identical deployments must
//!    yield identical costs, regardless of who measures them and when.
//! 2. **Quantifiability** (Principle 2): the metric must be measurable and
//!    comparable head-to-head.
//! 3. **End-to-end coverage** (Principle 3): the metric must cover every
//!    component of every system in the comparison.
//!
//! This crate encodes those properties in the type system and provides:
//!
//! - [`Quantity`]/[`Unit`]: unit-checked scalar quantities (Gbps, watts,
//!   microseconds, LUTs, …) so that perf/cost values cannot be mixed up.
//! - [`PerfMetric`]: performance metric descriptors carrying an explicit
//!   improvement [`Direction`] and [`Scalability`] (latency and Jain's
//!   fairness index are *not* scalable — §4.3).
//! - [`CostMetric`]: cost metric descriptors carrying the three paper
//!   properties, plus [`validate_cost_metric`] which reports
//!   [`PrincipleViolation`]s for a given set of systems.
//! - [`catalog`]: the well-known metric registry reproducing the paper's
//!   Table 1 taxonomy.
//! - [`pricing::PricingModel`]: the paper's §3.1 suggestion of releasing a
//!   pricing model alongside a paper so others can recompute TCO — a
//!   context-independent stand-in for an inherently context-dependent
//!   metric.
//!
//! All items are plain data + pure functions; no global state.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "tests pin exact results: a seeded run reproduces every float bit for bit"
    )
)]

pub mod catalog;
pub mod cost;
pub mod direction;
pub mod fairness;
pub mod perf;
pub mod pricing;
pub mod quantity;
pub mod unit;

pub use cost::{
    validate_cost_metric, CostMetric, CostValue, CoverageScope, DeviceClass, PrincipleViolation,
};
pub use direction::{Direction, Scalability};
pub use perf::{PerfMetric, PerfValue};
pub use quantity::Quantity;
pub use unit::Unit;
