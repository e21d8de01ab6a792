//! Per-stage telemetry: deterministic counters plus log-scale
//! histograms of queue depth, queue wait, and service time.
//!
//! A [`Telemetry`] is pure sim-time state — identical across fusion
//! modes and harness worker counts.

use crate::hist::LogHistogram;
use apples_core::json::Json;

/// Counters and distributions for one pipeline stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTelemetry {
    /// Packets that arrived at the stage.
    pub arrivals: u64,
    /// Packets pushed into the stage queue.
    pub enqueues: u64,
    /// Packets pulled from the queue into service.
    pub dispatches: u64,
    /// Service completions.
    pub served: u64,
    /// Drops because the bounded queue was full.
    pub queue_drops: u64,
    /// Drops by NF policy (deny verdicts).
    pub policy_drops: u64,
    /// Drops by the fault layer.
    pub fault_drops: u64,
    /// Fault-plan actions applied to this stage.
    pub fault_events: u64,
    /// Deepest queue depth observed at enqueue time.
    pub peak_depth: u64,
    /// Queue depth after each enqueue.
    pub depth: LogHistogram,
    /// Sim-time ns spent queued before service.
    pub wait_ns: LogHistogram,
    /// Sim-time ns of service per completion.
    pub service_ns: LogHistogram,
}

impl StageTelemetry {
    /// Total drops at this stage, all causes.
    pub fn drops(&self) -> u64 {
        self.queue_drops + self.policy_drops + self.fault_drops
    }

    /// Deterministic JSON rendering of this stage's telemetry.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("arrivals", self.arrivals)
            .field("enqueues", self.enqueues)
            .field("dispatches", self.dispatches)
            .field("served", self.served)
            .field("queue_drops", self.queue_drops)
            .field("policy_drops", self.policy_drops)
            .field("fault_drops", self.fault_drops)
            .field("fault_events", self.fault_events)
            .field("peak_depth", self.peak_depth)
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
            .filter(|(_, s)| s.served > 0)
            .max_by_key(|(i, s)| (s.served, usize::MAX - i))
            .map(|(i, _)| i)
    }

    /// The stage index with the deepest observed queue, if any queued.
    pub fn deepest_queue(&self) -> Option<usize> {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.peak_depth > 0)
            .max_by_key(|(i, s)| (s.peak_depth, usize::MAX - i))
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
        t.stages[1].served = 4;
        t.stages[2].served = 4;
        t.stages[2].peak_depth = 9;
        assert_eq!(t.busiest_stage(), Some(1));
        assert_eq!(t.deepest_queue(), Some(2));
        assert_eq!(Telemetry::new(2).busiest_stage(), None);
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
