//! The composition layer the engine talks to: one optional observer
//! that fans hooks out to the tracer, telemetry, time series, and span
//! profiler.
//!
//! The engine's run loop holds `Option<RunObserver>`; with `None` every
//! instrumentation site is a single branch (the zero-cost-when-off
//! contract the bench harness verifies byte-for-byte). With `Some`,
//! each hook updates whichever pieces the [`ObsConfig`] enabled.

use crate::span::{Phase, SpanProfiler, SpanToken};
use crate::telemetry::{StageTelemetry, Telemetry};
use crate::timeseries::TimeSeries;
use crate::trace::{TraceDrop, TraceEvent, TraceFault, TraceKind, Tracer};
use apples_core::json::Json;

/// Structural counters from the event queue: how many events it took.
/// A pure function of the event schedule, so deterministic for a given
/// `(seed, spec)` — but *not* invariant across fusion modes (fused hops
/// bypass the queue), which is why it lives beside the trace rather
/// than inside it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Events pushed into the scheduler.
    pub pushes: u64,
}

impl SchedCounters {
    /// Deterministic JSON rendering.
    pub fn to_json(&self) -> Json {
        Json::obj().field("pushes", self.pushes)
    }
}

/// Default trace ring bound: plenty for the short windows traces are
/// taken over, flat memory on anything longer.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Which observability pieces a run collects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Trace ring bound; 0 disables tracing entirely.
    pub trace_capacity: usize,
    /// Collect per-stage telemetry.
    pub telemetry: bool,
    /// Profile engine phases.
    pub spans: bool,
    /// Collect the sim-time metrics ring ([`TimeSeries`]).
    pub timeseries: bool,
}

impl ObsConfig {
    /// Everything on, default trace bound.
    pub fn full() -> Self {
        ObsConfig {
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            telemetry: true,
            spans: true,
            timeseries: true,
        }
    }

    /// Telemetry alone: no event tracing, spans or time series.
    pub fn telemetry_only() -> Self {
        ObsConfig { trace_capacity: 0, telemetry: true, spans: false, timeseries: false }
    }

    /// The scaling-diagnosis set: spans and the metrics ring, no event
    /// tracing, no per-stage telemetry — the cheap-enough-to-leave-on
    /// configuration the bench overhead gate holds under its ceiling.
    pub fn diagnosis() -> Self {
        ObsConfig { trace_capacity: 0, telemetry: false, spans: true, timeseries: true }
    }
}

/// Live observability state for one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunObserver {
    /// The bounded event trace, when tracing is on.
    pub tracer: Option<Tracer>,
    /// Per-stage counters/histograms, when telemetry is on.
    pub telemetry: Option<Telemetry>,
    /// Engine-phase profiles, when spans are on.
    pub spans: Option<SpanProfiler>,
    /// The sim-time metrics ring, when the time series is on.
    pub timeseries: Option<TimeSeries>,
    /// Scheduler counters, set once at the end of the run.
    pub sched: SchedCounters,
}

impl RunObserver {
    /// Builds an observer from a config.
    pub fn new(cfg: &ObsConfig) -> Self {
        RunObserver {
            tracer: (cfg.trace_capacity > 0).then(|| Tracer::with_capacity(cfg.trace_capacity)),
            telemetry: cfg.telemetry.then(Telemetry::default),
            spans: cfg.spans.then(SpanProfiler::new),
            timeseries: cfg.timeseries.then(TimeSeries::default),
            sched: SchedCounters::default(),
        }
    }

    /// Sizes telemetry for `n` stages (the engine calls this once per
    /// run, before any hook fires).
    pub fn ensure_stages(&mut self, n: usize) {
        if let Some(t) = &mut self.telemetry {
            t.ensure_stages(n);
        }
    }

    /// Records a trace event. `seq` is called only when the trace ring
    /// is on: the engine reads a packet's id through its packet handle,
    /// and a run without tracing never pays for that load.
    #[inline]
    fn emit(&mut self, t_ns: u64, seq: impl FnOnce() -> u64, kind: TraceKind) {
        if let Some(tr) = &mut self.tracer {
            tr.emit(TraceEvent { t_ns, seq: seq(), kind });
        }
    }

    #[inline]
    fn stage_mut(&mut self, stage: usize) -> Option<&mut StageTelemetry> {
        self.telemetry.as_mut().and_then(|t| t.stages.get_mut(stage))
    }

    /// A packet arrived at `stage`.
    #[inline]
    pub fn on_stage_enter(&mut self, t_ns: u64, seq: impl FnOnce() -> u64, stage: usize) {
        self.emit(t_ns, seq, TraceKind::StageEnter { stage: stage as u32 });
    }

    /// A packet was queued at `stage`; `depth` is the depth after.
    #[inline]
    pub fn on_enqueue(&mut self, t_ns: u64, seq: impl FnOnce() -> u64, stage: usize, depth: usize) {
        if let Some(s) = self.stage_mut(stage) {
            s.depth.record(depth as u64);
        }
        self.emit(t_ns, seq, TraceKind::Enqueue { stage: stage as u32, depth: depth as u32 });
    }

    /// A packet left the queue into service after `wait_ns` queued.
    #[inline]
    pub fn on_dispatch(
        &mut self,
        t_ns: u64,
        seq: impl FnOnce() -> u64,
        stage: usize,
        wait_ns: u64,
    ) {
        if let Some(s) = self.stage_mut(stage) {
            s.wait_ns.record(wait_ns);
        }
        if let Some(ts) = &mut self.timeseries {
            ts.on_dispatch(t_ns);
        }
        self.emit(t_ns, seq, TraceKind::Dispatch { stage: stage as u32, wait_ns });
    }

    /// A packet finished `service_ns` of service at `stage`.
    #[inline]
    pub fn on_stage_exit(
        &mut self,
        t_ns: u64,
        seq: impl FnOnce() -> u64,
        stage: usize,
        service_ns: u64,
        forwarded: bool,
    ) {
        if let Some(s) = self.stage_mut(stage) {
            s.service_ns.record(service_ns);
        }
        self.emit(t_ns, seq, TraceKind::StageExit { stage: stage as u32, service_ns, forwarded });
    }

    /// A packet was dropped at `stage`.
    #[inline]
    pub fn on_drop(
        &mut self,
        t_ns: u64,
        seq: impl FnOnce() -> u64,
        stage: usize,
        reason: TraceDrop,
    ) {
        self.emit(t_ns, seq, TraceKind::Drop { stage: stage as u32, reason });
    }

    /// A fault-plan action was applied to `stage`.
    #[inline]
    pub fn on_fault(
        &mut self,
        t_ns: u64,
        seq: impl FnOnce() -> u64,
        stage: usize,
        fault: TraceFault,
    ) {
        if let Some(s) = self.stage_mut(stage) {
            s.fault_events += 1;
        }
        self.emit(t_ns, seq, TraceKind::Fault { stage: stage as u32, fault });
    }

    /// Opens a profiling span (no-op token when spans are off).
    #[inline]
    pub fn span_begin(&mut self, phase: Phase) -> SpanToken {
        match &mut self.spans {
            Some(p) => p.begin(phase),
            None => SpanToken::noop(),
        }
    }

    /// Closes a profiling span.
    #[inline]
    pub fn span_end(&mut self, phase: Phase, token: SpanToken) {
        if let Some(p) = &mut self.spans {
            p.end(phase, token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets_enable_the_right_pieces() {
        let full = RunObserver::new(&ObsConfig::full());
        assert!(full.tracer.is_some() && full.telemetry.is_some() && full.spans.is_some());
        assert!(full.timeseries.is_some());
        let t = RunObserver::new(&ObsConfig::telemetry_only());
        assert!(t.tracer.is_none() && t.telemetry.is_some() && t.spans.is_none());
        assert!(t.timeseries.is_none());
        let d = RunObserver::new(&ObsConfig::diagnosis());
        assert!(d.tracer.is_none() && d.telemetry.is_none());
        assert!(d.spans.is_some() && d.timeseries.is_some());
    }

    #[test]
    fn hooks_update_trace_and_telemetry_together() {
        let mut obs = RunObserver::new(&ObsConfig::full());
        obs.ensure_stages(2);
        obs.on_stage_enter(100, || 1, 0);
        obs.on_enqueue(100, || 1, 0, 3);
        obs.on_dispatch(150, || 2, 0, 50);
        obs.on_stage_exit(250, || 3, 0, 100, true);
        obs.on_drop(300, || 4, 1, TraceDrop::QueueFull);
        obs.on_fault(400, || 5, 1, TraceFault::DeviceDown);
        let tel = obs.telemetry.as_ref().unwrap();
        let s0 = &tel.stages[0];
        assert_eq!((s0.depth.count(), s0.wait_ns.count(), s0.service_ns.count()), (1, 1, 1));
        assert_eq!((s0.depth.max(), s0.wait_ns.max(), s0.service_ns.max()), (3, 50, 100));
        assert_eq!(s0.fault_events, 0);
        assert_eq!(tel.stages[1], StageTelemetry { fault_events: 1, ..Default::default() });
        assert_eq!(obs.tracer.as_ref().unwrap().emitted(), 6);
    }

    #[test]
    fn out_of_range_stage_is_ignored_by_telemetry_not_trace() {
        let mut obs = RunObserver::new(&ObsConfig::full());
        obs.ensure_stages(1);
        obs.on_enqueue(10, || 1, 9, 4);
        obs.on_fault(20, || 2, 9, TraceFault::DeviceDown);
        assert_eq!(obs.telemetry.as_ref().unwrap().stages, vec![StageTelemetry::default()]);
        assert_eq!(obs.tracer.as_ref().unwrap().emitted(), 2);
    }

    #[test]
    fn spans_are_noops_when_disabled() {
        let mut obs = RunObserver::new(&ObsConfig::telemetry_only());
        let tok = obs.span_begin(Phase::Dispatch);
        obs.span_end(Phase::Dispatch, tok);
        assert!(obs.spans.is_none());
    }
}
