//! # apples-store
//!
//! Content-addressed experiment store (ROADMAP item 2, after repx's
//! incremental pipelines): artifacts are cached under the FNV-1a digest
//! of a typed [`CacheKey`](apples_core::digest::CacheKey) built from
//! the provenance stamp (seed, fault digest, config digest, toolchain,
//! git rev), plus the upstream structure of a
//! hand-rolled DAG (scenario → fault sweep points → run → report →
//! figure). A warm `xp all` short-circuits every hit; any single digest
//! component change re-addresses exactly the dependent subtree.
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
//! - [`dag`] — parents-first construction keeps node order topological;
//!   effective keys fold parent digests, which is what scopes
//!   invalidation to a subtree. Sweep expansion dedups shared nodes.
//! - [`plan`] — one pass resolving DAG × store into hit/stale/miss/torn
//!   per node; the rendered form is `xp all --explain`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod dag;
pub mod entry;
pub mod plan;
pub mod store;

pub use dag::{Dag, Node, NodeId};
pub use entry::{decode, encode, Decoded, FOOTER_MARKER};
pub use plan::{plan, Plan, PlannedNode};
pub use store::{GcReport, Lookup, Store};
