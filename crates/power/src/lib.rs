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
//! Each device also states its rack footprint. A deployment's power
//! lines list the devices it needs, so they are its whole cost
//! inventory: its watts and rack units are sums over them.
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
pub mod model;

pub use devices::DeviceSpec;
pub use model::LinearPower;
