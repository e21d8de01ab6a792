//! Per-stage telemetry: log-scale histograms of queue depth, queue
//! wait, and service time, plus the count of fault-plan actions.
//!
//! The engine's `StageReport` already counts a stage's arrivals, served
//! packets and drops, so telemetry does not count them again. Its
//! histograms supply the rest exactly: `depth.count()` is the
//! enqueues, `wait_ns.count()` the dispatches, `service_ns.count()` the
//! completions, and `depth.max()` the peak queue depth.
//!
//! A [`Telemetry`] is pure sim-time state — identical across fusion
//! modes and harness worker counts.

use crate::hist::LogHistogram;
use apples_core::json::Json;

/// Distributions for one pipeline stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTelemetry {
    /// Fault-plan actions applied to this stage.
    pub fault_events: u64,
    /// Queue depth after each enqueue.
    pub depth: LogHistogram,
    /// Sim-time ns spent queued before service, one per dispatch.
    pub wait_ns: LogHistogram,
    /// Sim-time ns of service, one per completion.
    pub service_ns: LogHistogram,
}

impl StageTelemetry {
    /// Deterministic JSON rendering of this stage's telemetry.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("fault_events", self.fault_events)
            .field("depth", self.depth.summary_json())
            .field("wait_ns", self.wait_ns.summary_json())
            .field("service_ns", self.service_ns.summary_json())
    }
}

/// Telemetry for a whole deployment: one [`StageTelemetry`] per stage,
/// indexed exactly like the engine's stage list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Per-stage records, index-aligned with the deployment.
    pub stages: Vec<StageTelemetry>,
}

impl Telemetry {
    /// Creates telemetry sized for `n` stages.
    pub fn new(n: usize) -> Self {
        Telemetry { stages: vec![StageTelemetry::default(); n] }
    }

    /// Grows to at least `n` stages.
    pub fn ensure_stages(&mut self, n: usize) {
        if self.stages.len() < n {
            self.stages.resize(n, StageTelemetry::default());
        }
    }

    /// The stage index with the most service completions, if any stage
    /// served at all.
    pub fn busiest_stage(&self) -> Option<usize> {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.service_ns.count() > 0)
            .max_by_key(|(i, s)| (s.service_ns.count(), usize::MAX - i))
            .map(|(i, _)| i)
    }

    /// The stage index with the deepest observed queue, if any queued.
    pub fn deepest_queue(&self) -> Option<usize> {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.depth.max() > 0)
            .max_by_key(|(i, s)| (s.depth.max(), usize::MAX - i))
            .map(|(i, _)| i)
    }

    /// Deterministic JSON: an array of per-stage objects, labelled with
    /// `names` where provided (falling back to `stage<i>`).
    pub fn to_json(&self, names: &[String]) -> Json {
        let arr: Vec<Json> = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let name = names.get(i).cloned().unwrap_or_else(|| format!("stage{i}"));
                Json::obj().field("stage", name).field("telemetry", s.to_json())
            })
            .collect();
        Json::Arr(arr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busiest_and_deepest_prefer_lowest_index_on_ties() {
        let mut t = Telemetry::new(3);
        for s in [1, 2] {
            for _ in 0..4 {
                t.stages[s].service_ns.record(100);
            }
        }
        t.stages[1].depth.record(3);
        t.stages[2].depth.record(9);
        t.stages[0].depth.record(9);
        assert_eq!(t.busiest_stage(), Some(1));
        assert_eq!(t.deepest_queue(), Some(0));
        assert_eq!(Telemetry::new(2).busiest_stage(), None);
        assert_eq!(Telemetry::new(2).deepest_queue(), None);
    }

    #[test]
    fn json_uses_names_then_falls_back() {
        let t = Telemetry::new(2);
        let names = vec!["acl".to_owned()];
        let s = t.to_json(&names).render();
        assert!(s.contains("\"acl\""), "{s}");
        assert!(s.contains("\"stage1\""), "{s}");
    }
}
