//! Sampled span profiling over engine phases.
//!
//! Every span is counted, but the wall clock is read only once per
//! [`SAMPLE_EVERY`] spans per phase — two `Instant::now` calls per
//! event would dominate a hot loop that dispatches tens of millions of
//! events per second. Estimated totals scale the sampled time by the
//! sampling ratio; the bench harness's overhead gate holds the whole
//! mechanism under 5%.
//!
//! Wall time measured here is *reported only* — it never flows into
//! simulated results, trace files, or goldens, which is why the one
//! `Instant::now` below carries a reasoned D2 suppression (mirroring
//! the bench harness's `WallClock`).

use apples_core::json::Json;
use std::time::Instant;

/// Engine phases the profiler covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Dispatching one event through the stages.
    Dispatch,
    /// Applying fault-plan actions.
    FaultApply,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 2] = [Phase::Dispatch, Phase::FaultApply];

    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::FaultApply => "fault-apply",
        }
    }

    fn idx(self) -> usize {
        match self {
            Phase::Dispatch => 0,
            Phase::FaultApply => 1,
        }
    }
}

/// Wall clock is read once per this many spans per phase (power of
/// two). A dispatch span opens per *event*, so the cadence must be
/// sparse for the profiler to stay under its 5% budget; at 1024 the
/// clock reads are thousands per second, not hundreds of thousands.
pub const SAMPLE_EVERY: u64 = 1024;

/// Accumulated profile for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Spans recorded.
    pub count: u64,
    /// Wall nanoseconds accumulated over the sampled spans only.
    pub sampled_wall_ns: u128,
    /// How many spans were wall-sampled.
    pub samples: u64,
}

impl PhaseProfile {
    /// Estimated total wall nanoseconds: sampled time scaled by the
    /// sampling ratio (0 when nothing was sampled).
    pub fn est_wall_ns(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sampled_wall_ns as f64 * (self.count as f64 / self.samples as f64)
        }
    }
}

/// An open span: carries the (possibly absent) sampled start instant.
/// `Copy`, so the engine can hold it across arbitrary control flow.
#[derive(Debug, Clone, Copy)]
pub struct SpanToken {
    started: Option<Instant>,
}

impl SpanToken {
    /// A token that samples nothing — what a disabled profiler hands out.
    pub fn noop() -> Self {
        SpanToken { started: None }
    }
}

/// The profiler: fixed per-phase slots, no allocation after creation.
#[derive(Debug, Clone, Default)]
pub struct SpanProfiler {
    phases: [PhaseProfile; 2],
}

impl SpanProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        SpanProfiler::default()
    }

    /// Opens a span for `phase`. Reads the wall clock only on the
    /// sampling cadence.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "sampled span-profiler wall read; reported only, never flows into simulated results or trace files"
    )]
    pub fn begin(&mut self, phase: Phase) -> SpanToken {
        let p = &mut self.phases[phase.idx()];
        let sampled = p.count.is_multiple_of(SAMPLE_EVERY);
        p.count += 1;
        let started = if sampled { Some(Instant::now()) } else { None };
        SpanToken { started }
    }

    /// Closes a span, adding its wall time to `phase` when it was
    /// sampled.
    #[inline]
    pub fn end(&mut self, phase: Phase, token: SpanToken) {
        if let Some(start) = token.started {
            let p = &mut self.phases[phase.idx()];
            p.sampled_wall_ns += start.elapsed().as_nanos();
            p.samples += 1;
        }
    }

    /// The accumulated profile for `phase`.
    pub fn phase(&self, phase: Phase) -> &PhaseProfile {
        &self.phases[phase.idx()]
    }

    /// Folded-stack rendering for standard flamegraph tooling: one
    /// `frame;frame value` line per stack, where the value is the
    /// phase's estimated *self* wall time in integer microseconds.
    /// Fault-apply spans open inside dispatch spans, so the fault
    /// estimate is subtracted from dispatch's self time (floored at
    /// zero) and emitted as a `dispatch;fault-apply` child frame.
    /// Phases that never ran emit nothing; phases that ran but round to
    /// zero emit 1, so no recorded work disappears from the graph.
    pub fn to_folded(&self, root: &str) -> String {
        let est_us = |ph: Phase| self.phase(ph).est_wall_ns() / 1e3;
        let fault_us = est_us(Phase::FaultApply);
        let mut out = String::new();
        let mut line = |stack: &str, count: u64, us: f64| {
            if count > 0 {
                out.push_str(&format!("{root};{stack} {}\n", (us.round() as u64).max(1)));
            }
        };
        let dispatch_self = (est_us(Phase::Dispatch) - fault_us).max(0.0);
        line("dispatch", self.phase(Phase::Dispatch).count, dispatch_self);
        line("dispatch;fault-apply", self.phase(Phase::FaultApply).count, fault_us);
        out
    }

    /// Total spans recorded across all phases.
    pub fn total_spans(&self) -> u64 {
        self.phases.iter().map(|p| p.count).sum()
    }

    /// JSON rendering: one object per phase, in [`Phase::ALL`] order.
    /// Wall fields are estimates and excluded from determinism gates.
    pub fn to_json(&self) -> Json {
        let arr: Vec<Json> = Phase::ALL
            .iter()
            .map(|&ph| {
                let p = self.phase(ph);
                Json::obj()
                    .field("phase", ph.label())
                    .field("spans", p.count)
                    .field("wall_samples", p.samples)
                    .field("est_wall_ms", p.est_wall_ns() / 1e6)
            })
            .collect();
        Json::Arr(arr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_cadence_reads_the_clock_sparsely() {
        let mut prof = SpanProfiler::new();
        for _ in 0..(SAMPLE_EVERY * 3) {
            let tok = prof.begin(Phase::Dispatch);
            prof.end(Phase::Dispatch, tok);
        }
        let p = prof.phase(Phase::Dispatch);
        assert_eq!(p.count, SAMPLE_EVERY * 3);
        assert_eq!(p.samples, 3, "one wall sample per {SAMPLE_EVERY} spans");
    }

    #[test]
    fn estimates_scale_by_the_sampling_ratio() {
        let p = PhaseProfile { count: 128, sampled_wall_ns: 1000, samples: 2 };
        assert_eq!(p.est_wall_ns().to_bits(), 64_000.0f64.to_bits());
        assert_eq!(PhaseProfile::default().est_wall_ns().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn folded_output_is_wellformed_and_nests_faults_under_dispatch() {
        let mut prof = SpanProfiler::new();
        prof.phases[Phase::Dispatch.idx()] =
            PhaseProfile { count: 10, sampled_wall_ns: 9_000_000, samples: 10 };
        prof.phases[Phase::FaultApply.idx()] =
            PhaseProfile { count: 4, sampled_wall_ns: 2_000_000, samples: 4 };
        let folded = prof.to_folded("engine");
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["engine;dispatch 7000", "engine;dispatch;fault-apply 2000"]);
        for l in &lines {
            let (stack, count) = l.rsplit_once(' ').expect("space-separated");
            assert!(!stack.contains(' '), "frames must be space-free: {stack}");
            assert!(count.parse::<u64>().is_ok(), "count must be an integer: {count}");
        }
    }

    #[test]
    fn folded_output_skips_phases_that_never_ran() {
        let mut prof = SpanProfiler::new();
        let tok = prof.begin(Phase::Dispatch);
        prof.end(Phase::Dispatch, tok);
        let folded = prof.to_folded("engine");
        assert!(!folded.contains("fault-apply"), "{folded}");
        assert!(folded.contains("engine;dispatch "), "{folded}");
    }

    #[test]
    fn json_lists_every_phase_in_order() {
        let prof = SpanProfiler::new();
        let s = prof.to_json().render();
        let b = s.find("\"dispatch\"").unwrap();
        let c = s.find("fault-apply").unwrap();
        assert!(b < c, "{s}");
    }
}
