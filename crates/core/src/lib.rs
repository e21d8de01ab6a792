//! # apples-core
//!
//! The fair-comparison methodology engine from *"Of Apples and Oranges:
//! Fair Comparisons in Heterogenous Systems Evaluation"* (HotNets 2023),
//! as an executable library.
//!
//! The paper's seven principles map onto this crate as follows:
//!
//! | Principle | Where |
//! |---|---|
//! | P1 context-independent cost metrics | enforced via `apples-metrics` + [`evaluate::Evaluation`] validation |
//! | P2 quantifiable cost metrics | same |
//! | P3 end-to-end cost coverage | same |
//! | P4 same-regime comparisons are unidimensional | [`regime`] |
//! | P5 scale scalable baselines into the comparison region | [`scaling`] |
//! | P6 ideal (linear) scaling as a generous bound | [`scaling::IdealLinear`] + pitfall guards |
//! | P7 non-scalable baselines compare only inside the region | [`nonscalable`] |
//!
//! The central objects are [`point::OperatingPoint`] — a (performance,
//! cost) pair in the plane of the paper's Figures 1–3 — and
//! [`evaluate::Evaluation`], which takes a proposed system, a baseline,
//! an optional scaling model, and produces a [`verdict::Verdict`] plus a
//! report rendered by [`report::render_text`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "tests pin exact results: a seeded run reproduces every float bit for bit"
    )
)]

pub mod checklist;
pub mod digest;
pub mod dominance;
pub mod efficiency;
pub mod evaluate;
pub mod frontier;
pub mod json;
pub mod multi;
pub mod nonscalable;
pub mod point;
pub mod regime;
pub mod report;
pub mod scaling;
pub mod stats;
pub mod verdict;

pub use checklist::{audit, render_checklist, ChecklistItem};
pub use digest::{fnv1a, fnv1a_hex, CacheKey, KeyDiff};
pub use dominance::{in_comparison_region, relate, Relation};
pub use efficiency::{perf_per_cost, rank_by_efficiency};
pub use evaluate::Evaluation;
pub use frontier::pareto_frontier;
pub use multi::{evaluate_multi, relate_multi, MultiPoint, MultiResult};
pub use nonscalable::{compare_nonscalable, Comparability};
pub use point::{OperatingPoint, System};
pub use regime::{detect_regime, Regime, Tolerance};
pub use scaling::{
    Amdahl, CostCoverage, IdealLinear, MeasuredCurve, Saturating, ScalingError, ScalingModel,
};
pub use stats::{bootstrap_mean_ci, BootstrapCi, Summary};
pub use verdict::Verdict;
