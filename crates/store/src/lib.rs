//! # apples-store
//!
//! Content-addressed experiment store (after repx's incremental
//! pipelines): artifacts are cached under the FNV-1a digest of a typed
//! [`CacheKey`](apples_core::digest::CacheKey). `xp all` files every
//! artifact of one experiment (its run, report and figures) under one
//! key: the provenance stamp the report carries (seed, fault digest,
//! config digest, toolchain, git rev) plus the golden-fixture digest
//! and, for the fault experiments, one component per severity rung. A
//! warm `xp all` serves every hit; a change to any component re-runs
//! exactly the experiments whose key holds it.
//!
//! Guarantees, each carried by a module and gated by tests:
//!
//! - [`entry`] — a trailing length+digest footer makes torn writes
//!   detectable: a killed writer can only produce a *miss*, never a
//!   corrupt hit. Hits additionally require the footer's recorded key
//!   to equal the expected key component-for-component, so a cache hit
//!   is provably stamped with the provenance it is served under.
//! - [`store`] — publishes are tmp-file + atomic rename, so concurrent
//!   `xp` invocations on the same key cannot interleave; GC removes
//!   only unreachable entry files (things `publish` could have made),
//!   never documentation or foreign files.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod entry;
pub mod store;

pub use entry::{decode, encode, Decoded, FOOTER_MARKER};
pub use store::{GcReport, Lookup, Store};
