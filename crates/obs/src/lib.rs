//! Deterministic observability for the simulation workspace.
//!
//! Everything here is driven by *sim-time*: the trace of a run is a pure
//! function of `(seed, spec)`, byte-identical across repeat runs and
//! worker counts, so a trace file is evidence — not an anecdote. The
//! crate provides five pieces; the first four compose via
//! [`RunObserver`]:
//!
//! - [`trace`]: a bounded ring-buffer [`Tracer`] of typed events
//!   (enqueue / dispatch / drop / fault / stage-enter / stage-exit);
//!   the engine holds an `Option<RunObserver>`, so instrumentation
//!   compiles down to one `Option` check when observability is off;
//! - [`telemetry`]: per-stage log-scale histograms (queue depth, queue
//!   wait, service time) and fault-action counts; the engine's
//!   `StageReport` keeps the arrival, service and drop counts;
//! - [`span`]: a sampled wall-time span profiler over engine phases,
//!   cheap enough to leave on (<5% overhead, enforced by the bench
//!   harness), with folded-stack export for flamegraph tooling;
//! - [`timeseries`]: a sim-time interval ring of dispatch counts, the
//!   run's throughput over time;
//! - [`provenance`]: the stamp (seed, fault digest, config digest,
//!   toolchain, git rev) that makes any emitted artifact
//!   replayable from its own header.
//!
//! The only wall-clock read in the crate is the span profiler's sampled
//! `Instant::now`, under a reasoned `#[expect]` of rule D2's
//! `clippy::disallowed_methods`; wall time never flows into simulated
//! results or trace files.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod chrome;
pub mod hist;
pub mod observer;
pub mod provenance;
pub mod span;
pub mod telemetry;
pub mod timeseries;
pub mod trace;

pub use hist::LogHistogram;
pub use observer::{ObsConfig, RunObserver, SchedCounters};
pub use provenance::{fnv1a, fnv1a_hex, Provenance};
pub use span::{Phase, SpanProfiler, SpanToken};
pub use telemetry::{StageTelemetry, Telemetry};
pub use timeseries::TimeSeries;
pub use trace::{TraceDrop, TraceEvent, TraceFault, TraceKind, Tracer};
