//! # apples-power
//!
//! Power and cost accounting for simulated heterogeneous deployments.
//!
//! The paper recommends power draw (watts) as the default cost metric: it
//! is context-independent, quantifiable, and composes end-to-end (§3.4).
//! Real evaluations read watts from a meter; this crate supplies the
//! simulator's stand-in — a first-order utilization model
//! (idle + utilization × dynamic range) per device, which a deployment
//! evaluates at each stage's measured utilization after a run.
//!
//! It also carries the rest of a system's cost inventory — rack units,
//! die area, memory, bill of materials — so any of the Table 1 metrics
//! can be reported for a deployment, and the §3.1 pricing-model release
//! can price it.
//!
//! The device constants in [`devices`] are synthetic but representative
//! (documented per device); DESIGN.md records the substitution rationale.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "tests pin exact results: a seeded run reproduces every float bit for bit"
    )
)]

pub mod devices;
pub mod inventory;
pub mod model;

pub use devices::DeviceSpec;
pub use inventory::{CostVector, SystemInventory};
pub use model::LinearPower;
