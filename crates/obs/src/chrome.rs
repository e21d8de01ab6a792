//! Chrome `trace_event` export: a traced run opens directly in
//! `chrome://tracing` / Perfetto.
//!
//! Schema (all keys insertion-ordered, so files are byte-stable):
//!
//! ```json
//! {
//!   "displayTimeUnit": "ns",
//!   "provenance": { "seed": ..., "fault_digest": ..., ... },
//!   "emitted": 123, "retained": 123, "overwritten": 0,
//!   "traceEvents": [ ... ]
//! }
//! ```
//!
//! Stage-exit events become `"ph": "X"` complete slices (`ts` backdated
//! by the service time, `dur` the service time, both in fractional µs);
//! everything else becomes a thread-scoped instant (`"ph": "i"`). One
//! track (`tid`) per stage under a single process. Timestamps are pure
//! sim-time — wall time never appears in a trace file, which is what
//! makes two traces of the same `(seed, spec)` byte-identical.

use crate::provenance::Provenance;
use crate::trace::{TraceEvent, TraceKind, Tracer};
use apples_core::json::Json;

const US_PER_NS: f64 = 1e-3;

fn base(ph: &str, name: &str, t_ns: u64, stage: u32) -> Json {
    Json::obj()
        .field("name", name)
        .field("ph", ph)
        .field("ts", t_ns as f64 * US_PER_NS)
        .field("pid", 0u64)
        .field("tid", u64::from(stage))
}

fn instant(ev: &TraceEvent, args: Json) -> Json {
    base("i", ev.kind.label(), ev.t_ns, ev.kind.stage()).field("s", "t").field("args", args)
}

fn event_json(ev: &TraceEvent) -> Json {
    let seq = ev.seq;
    match ev.kind {
        TraceKind::Enqueue { depth, .. } => {
            instant(ev, Json::obj().field("seq", seq).field("depth", u64::from(depth)))
        }
        TraceKind::Dispatch { wait_ns, .. } => {
            instant(ev, Json::obj().field("seq", seq).field("wait_ns", wait_ns))
        }
        TraceKind::StageEnter { .. } => instant(ev, Json::obj().field("seq", seq)),
        TraceKind::Drop { reason, .. } => {
            instant(ev, Json::obj().field("seq", seq).field("reason", reason.label()))
        }
        TraceKind::Fault { fault, .. } => {
            instant(ev, Json::obj().field("seq", seq).field("action", fault.label()))
        }
        TraceKind::StageExit { stage, service_ns, forwarded } => {
            let start_ns = ev.t_ns.saturating_sub(service_ns);
            base("X", "service", start_ns, stage)
                .field("dur", service_ns as f64 * US_PER_NS)
                .field("args", Json::obj().field("seq", seq).field("forwarded", forwarded))
        }
    }
}

/// Renders a whole trace. `stage_names` labels the per-stage tracks
/// (falling back to `stage<i>` when the list is short).
pub fn chrome_trace(tracer: &Tracer, stage_names: &[String], prov: &Provenance) -> Json {
    let mut events: Vec<Json> = Vec::new();
    events.push(
        Json::obj()
            .field("name", "process_name")
            .field("ph", "M")
            .field("pid", 0u64)
            .field("args", Json::obj().field("name", "apples-simnet")),
    );
    let max_stage = tracer.events().map(|e| e.kind.stage() as usize + 1).max().unwrap_or(0);
    for i in 0..max_stage.max(stage_names.len()) {
        let name = stage_names.get(i).cloned().unwrap_or_else(|| format!("stage{i}"));
        events.push(
            Json::obj()
                .field("name", "thread_name")
                .field("ph", "M")
                .field("pid", 0u64)
                .field("tid", i as u64)
                .field("args", Json::obj().field("name", name)),
        );
    }
    for ev in tracer.events() {
        events.push(event_json(ev));
    }
    Json::obj()
        .field("displayTimeUnit", "ns")
        .field("provenance", prov.to_json())
        .field("emitted", tracer.emitted())
        .field("retained", tracer.len())
        .field("overwritten", tracer.overwritten())
        .field("traceEvents", Json::Arr(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceDrop;

    fn sample_tracer() -> Tracer {
        let mut tr = Tracer::with_capacity(16);
        tr.emit(TraceEvent { t_ns: 1000, seq: 1, kind: TraceKind::StageEnter { stage: 0 } });
        tr.emit(TraceEvent { t_ns: 1000, seq: 1, kind: TraceKind::Enqueue { stage: 0, depth: 1 } });
        tr.emit(TraceEvent {
            t_ns: 2500,
            seq: 2,
            kind: TraceKind::StageExit { stage: 0, service_ns: 1500, forwarded: true },
        });
        tr.emit(TraceEvent {
            t_ns: 3000,
            seq: 3,
            kind: TraceKind::Drop { stage: 1, reason: TraceDrop::Policy },
        });
        tr
    }

    #[test]
    fn export_has_the_advertised_shape() {
        let prov = Provenance::new(7, "none", "cafe");
        let names = vec!["host".to_owned(), "sink-side".to_owned()];
        let s = chrome_trace(&sample_tracer(), &names, &prov).render_pretty();
        for key in [
            "\"displayTimeUnit\"",
            "\"provenance\"",
            "\"traceEvents\"",
            "\"process_name\"",
            "\"thread_name\"",
            "\"host\"",
            "\"sink-side\"",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        // The service slice is backdated by its duration: 2500-1500 ns
        // start → 1 µs, 1.5 µs duration.
        assert!(s.contains("\"ph\": \"X\""), "{s}");
        assert!(s.contains("\"dur\": 1.5"), "{s}");
        // Drops render as instants with a reason.
        assert!(s.contains("\"reason\": \"policy\""), "{s}");
    }

    #[test]
    fn export_is_deterministic() {
        let prov = Provenance::new(7, "none", "cafe");
        let a = chrome_trace(&sample_tracer(), &[], &prov).render();
        let b = chrome_trace(&sample_tracer(), &[], &prov).render();
        assert_eq!(a, b);
    }

    #[test]
    fn tracks_cover_stages_seen_in_events_even_unnamed() {
        let prov = Provenance::new(1, "none", "00");
        let s = chrome_trace(&sample_tracer(), &[], &prov).render();
        assert!(s.contains("\"stage0\""), "{s}");
        assert!(s.contains("\"stage1\""), "{s}");
    }
}
