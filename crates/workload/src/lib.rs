//! # apples-workload
//!
//! Deterministic, seeded workload generation for the packet-processing
//! simulator.
//!
//! The paper's definition of identical deployments requires "the same
//! workload" across every system in a comparison (§3.1). Synthetic
//! seeded generators guarantee that bit-for-bit: every system sees the
//! exact same packet arrival times, sizes, and flow identifiers.
//!
//! Provided building blocks:
//!
//! - [`sizes::PacketSizeDist`]: fixed sizes (and the RFC 2544 sweep
//!   set) and Simple IMIX;
//! - [`arrivals::ArrivalProcess`]: constant bit-rate and Poisson
//!   arrivals, and periodic overload bursts over either;
//! - [`flows::FlowPopulation`]: Zipf-popular flows over synthetic
//!   5-tuples;
//! - [`spec::WorkloadSpec`]: the combination, iterated as a stream of
//!   [`spec::PacketStub`]s.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "tests pin exact results: a seeded run reproduces every float bit for bit"
    )
)]

pub mod arrivals;
pub mod flows;
pub mod sizes;
pub mod spec;

pub use arrivals::ArrivalProcess;
pub use flows::{FiveTuple, FlowPopulation};
pub use sizes::PacketSizeDist;
pub use spec::{PacketStub, WorkloadSpec};
