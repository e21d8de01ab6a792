//! Deterministic fault injection: seed-derived plans of packet drops,
//! packet corruption, transient device slowdowns, and full device
//! outages with recovery.
//!
//! The design splits faults into two categories with different
//! determinism mechanics:
//!
//! * **Per-packet faults** (drop, corrupt) are *hash decisions*: each
//!   packet id is hashed against the plan seed and compared to the
//!   configured probability. No RNG stream is consumed, so the decision
//!   for packet `i` is independent of how many packets came before it
//!   and of the order in which stages observe packets. This is what
//!   makes fault runs byte-identical across serial and parallel
//!   schedules.
//! * **Windowed faults** (slowdown, outage) are *pre-derived event
//!   lists*: `FaultPlan::derive` walks a forked [`apples_rng::Rng`]
//!   stream per (stage, fault-kind) pair and lays out the full schedule
//!   of start/end events before the simulation begins. The engine
//!   pushes them into its event queue as first-class events, so replay
//!   needs only `(seed, FaultSpec)` — or the derived plan itself.
//!
//! Either way, a fault run is fully replayable from the pair
//! `(seed, FaultPlan)` alone: there is no hidden state.

use apples_rng::{mix64, Rng};

/// Converts the top 53 bits of a hash to a uniform f64 in `[0, 1)`.
#[inline]
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Salt separating the drop decision stream from the corrupt stream;
/// without distinct salts a packet that drops at p=0.5 would also
/// always corrupt at p=0.5.
const DROP_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
/// Salt for the corruption decision stream.
const CORRUPT_SALT: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// A transient slowdown: the device periodically degrades, multiplying
/// every service time by `factor` for `duration_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownSpec {
    /// Mean time between slowdown onsets (exponentially distributed).
    pub mean_period_ns: u64,
    /// How long each slowdown episode lasts.
    pub duration_ns: u64,
    /// Service-time multiplier while degraded (> 1.0 slows the device).
    pub factor: f64,
}

/// A full device outage with recovery: mean-time-between-failures /
/// mean-time-to-repair, both exponentially distributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageSpec {
    /// Mean time between failures, in nanoseconds.
    pub mtbf_ns: u64,
    /// Mean time to repair, in nanoseconds.
    pub mttr_ns: u64,
}

/// Declarative fault configuration attached to a deployment. A spec is
/// *workload-independent*: the concrete event schedule is derived from
/// `(seed, spec)` by [`FaultPlan::derive`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Probability that a packet is dropped at the injection point
    /// before it reaches the first stage.
    pub drop_prob: f64,
    /// Probability that a packet is marked corrupted at the injection
    /// point (NFs then apply their fail-open/fail-closed policy).
    pub corrupt_prob: f64,
    /// Optional transient-slowdown process, applied to every stage.
    pub slowdown: Option<SlowdownSpec>,
    /// Optional full-outage process, applied to every stage.
    pub outage: Option<OutageSpec>,
}

impl FaultSpec {
    /// A spec that injects nothing. Running with `FaultSpec::none()` is
    /// observationally identical to running without a fault plan.
    pub fn none() -> Self {
        FaultSpec { drop_prob: 0.0, corrupt_prob: 0.0, slowdown: None, outage: None }
    }

    /// A severity-scaled spec for sweeps: `severity` in `[0, 1]` scales
    /// loss/corruption probabilities and shrinks fault inter-arrival
    /// times together, so a single scalar orders scenarios from benign
    /// to hostile.
    pub fn at_severity(severity: f64) -> Self {
        let s = severity.clamp(0.0, 1.0);
        if s == 0.0 {
            return FaultSpec::none();
        }
        FaultSpec {
            drop_prob: 0.02 * s,
            corrupt_prob: 0.01 * s,
            slowdown: Some(SlowdownSpec {
                mean_period_ns: (20_000_000.0 / s) as u64,
                duration_ns: 1_000_000,
                factor: 1.0 + 2.0 * s,
            }),
            outage: Some(OutageSpec { mtbf_ns: (60_000_000.0 / s) as u64, mttr_ns: 1_500_000 }),
        }
    }

    /// True when the spec can never perturb a run.
    pub fn is_none(&self) -> bool {
        self.drop_prob <= 0.0
            && self.corrupt_prob <= 0.0
            && self.slowdown.is_none()
            && self.outage.is_none()
    }

    /// Canonical content digest for provenance stamping: FNV-1a over a
    /// stable field rendering, so equal specs share a digest and any
    /// field change shows up in every artifact stamped with it.
    pub fn digest(&self) -> String {
        let mut s = format!("drop={:?};corrupt={:?}", self.drop_prob, self.corrupt_prob);
        match self.slowdown {
            Some(sd) => {
                s.push_str(&format!(
                    ";slowdown={},{},{:?}",
                    sd.mean_period_ns, sd.duration_ns, sd.factor
                ));
            }
            None => s.push_str(";slowdown=none"),
        }
        match self.outage {
            Some(o) => s.push_str(&format!(";outage={},{}", o.mtbf_ns, o.mttr_ns)),
            None => s.push_str(";outage=none"),
        }
        apples_obs::fnv1a_hex(s.as_bytes())
    }
}

/// One scheduled fault transition, applied to a single stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The stage's service times start being multiplied by the factor
    /// carried in the plan's slowdown spec.
    SlowdownStart {
        /// Index of the affected stage.
        stage: usize,
    },
    /// The stage returns to nominal service times.
    SlowdownEnd {
        /// Index of the affected stage.
        stage: usize,
    },
    /// The stage goes fully down: arrivals are dropped, in-flight work
    /// still completes, no new work is started.
    DeviceDown {
        /// Index of the affected stage.
        stage: usize,
    },
    /// The stage recovers and resumes draining its queue.
    DeviceUp {
        /// Index of the affected stage.
        stage: usize,
    },
}

/// A fault transition pinned to simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation time at which the transition fires, in nanoseconds.
    pub t_ns: u64,
    /// What happens at `t_ns`.
    pub action: FaultAction,
}

/// The fully materialized fault schedule for one run: the seed, the
/// per-packet probabilities, the slowdown factor, and every windowed
/// transition in time order. `(seed, FaultPlan)` is the complete replay
/// token — two engines given equal plans produce equal `RunResult`s.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed the per-packet hash decisions key off.
    pub seed: u64,
    /// Per-packet drop probability at the injection point.
    pub drop_prob: f64,
    /// Per-packet corruption probability at the injection point.
    pub corrupt_prob: f64,
    /// Service-time multiplier applied while a stage is slowed.
    pub slow_factor: f64,
    /// Windowed transitions, sorted by time (ties broken by derivation
    /// order, which is itself deterministic).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            slow_factor: 1.0,
            events: Vec::new(),
        }
    }

    /// Derives the concrete schedule for `stages` pipeline stages over
    /// `[0, horizon_ns]`. Each (stage, fault-kind) pair forks its own
    /// RNG stream from `seed`, so adding an outage spec does not shift
    /// the slowdown schedule and vice versa.
    pub fn derive(seed: u64, spec: &FaultSpec, stages: usize, horizon_ns: u64) -> Self {
        let mut root = Rng::seed_from_u64(mix64(seed ^ 0x05ca_1ab1_e0dd_ba11));
        let mut events = Vec::new();
        let mut slow_factor = 1.0;

        if let Some(sd) = spec.slowdown {
            slow_factor = sd.factor;
            for stage in 0..stages {
                let mut rng = root.fork(2 * stage as u64);
                let mut t = sample_exp(sd.mean_period_ns, &mut rng);
                while t < horizon_ns {
                    events
                        .push(FaultEvent { t_ns: t, action: FaultAction::SlowdownStart { stage } });
                    let end = t.saturating_add(sd.duration_ns);
                    events
                        .push(FaultEvent { t_ns: end, action: FaultAction::SlowdownEnd { stage } });
                    t = end.saturating_add(sample_exp(sd.mean_period_ns, &mut rng));
                }
            }
        }

        if let Some(out) = spec.outage {
            for stage in 0..stages {
                let mut rng = root.fork(2 * stage as u64 + 1);
                let mut t = sample_exp(out.mtbf_ns, &mut rng);
                while t < horizon_ns {
                    events.push(FaultEvent { t_ns: t, action: FaultAction::DeviceDown { stage } });
                    let up = t.saturating_add(sample_exp(out.mttr_ns, &mut rng).max(1));
                    events.push(FaultEvent { t_ns: up, action: FaultAction::DeviceUp { stage } });
                    t = up.saturating_add(sample_exp(out.mtbf_ns, &mut rng));
                }
            }
        }

        events.sort_by_key(|e| e.t_ns);
        FaultPlan {
            seed,
            drop_prob: spec.drop_prob.clamp(0.0, 1.0),
            corrupt_prob: spec.corrupt_prob.clamp(0.0, 1.0),
            slow_factor,
            events,
        }
    }

    /// True when the plan can never perturb a run.
    pub fn is_none(&self) -> bool {
        self.drop_prob <= 0.0 && self.corrupt_prob <= 0.0 && self.events.is_empty()
    }

    /// Hash decision: is packet `pkt_id` dropped at the injection
    /// point? Order-independent and stateless — safe to evaluate from
    /// any schedule.
    #[inline]
    pub fn drops(&self, pkt_id: u64) -> bool {
        self.drop_prob > 0.0
            && unit_f64(mix64(self.seed ^ mix64(pkt_id).wrapping_add(DROP_SALT))) < self.drop_prob
    }

    /// Hash decision: is packet `pkt_id` corrupted at the injection
    /// point?
    #[inline]
    pub fn corrupts(&self, pkt_id: u64) -> bool {
        self.corrupt_prob > 0.0
            && unit_f64(mix64(self.seed ^ mix64(pkt_id).wrapping_add(CORRUPT_SALT)))
                < self.corrupt_prob
    }
}

/// Exponential sample with the given mean, floored at 1 ns so windows
/// always make progress.
fn sample_exp(mean_ns: u64, rng: &mut Rng) -> u64 {
    if mean_ns == 0 {
        return 1;
    }
    let u = rng.next_f64();
    // -ln(1-u) has mean 1; 1-u is in (0, 1] so ln is finite.
    let x = -(1.0 - u).ln() * mean_ns as f64;
    (x.ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        for id in 0..10_000u64 {
            assert!(!p.drops(id));
            assert!(!p.corrupts(id));
        }
    }

    #[test]
    fn derive_is_deterministic() {
        let spec = FaultSpec::at_severity(0.7);
        let a = FaultPlan::derive(42, &spec, 3, 50_000_000);
        let b = FaultPlan::derive(42, &spec, 3, 50_000_000);
        assert_eq!(a, b);
        assert!(!a.events.is_empty(), "severity 0.7 over 50ms must schedule windows");
    }

    #[test]
    fn different_seeds_differ() {
        let spec = FaultSpec::at_severity(0.7);
        let a = FaultPlan::derive(1, &spec, 2, 50_000_000);
        let b = FaultPlan::derive(2, &spec, 2, 50_000_000);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn events_are_time_sorted_and_in_horizon_windows() {
        let spec = FaultSpec::at_severity(1.0);
        let plan = FaultPlan::derive(9, &spec, 4, 80_000_000);
        let mut last = 0u64;
        for e in &plan.events {
            assert!(e.t_ns >= last, "events must be sorted");
            last = e.t_ns;
        }
        // Starts land inside the horizon; ends may spill past it.
        for e in &plan.events {
            match e.action {
                FaultAction::SlowdownStart { .. } | FaultAction::DeviceDown { .. } => {
                    assert!(e.t_ns < 80_000_000)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn windows_are_balanced_per_stage() {
        let spec = FaultSpec::at_severity(1.0);
        let plan = FaultPlan::derive(5, &spec, 3, 100_000_000);
        for stage in 0..3 {
            let mut slow_depth = 0i64;
            let mut down_depth = 0i64;
            for e in &plan.events {
                match e.action {
                    FaultAction::SlowdownStart { stage: s } if s == stage => slow_depth += 1,
                    FaultAction::SlowdownEnd { stage: s } if s == stage => slow_depth -= 1,
                    FaultAction::DeviceDown { stage: s } if s == stage => down_depth += 1,
                    FaultAction::DeviceUp { stage: s } if s == stage => down_depth -= 1,
                    _ => {}
                }
                assert!((0..=1).contains(&slow_depth), "windows must not nest");
                assert!((0..=1).contains(&down_depth), "outages must not nest");
            }
            assert_eq!(slow_depth, 0, "every slowdown must end");
            assert_eq!(down_depth, 0, "every outage must recover");
        }
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan {
            seed: 77,
            drop_prob: 0.1,
            corrupt_prob: 0.05,
            slow_factor: 1.0,
            events: Vec::new(),
        };
        let n = 200_000u64;
        let dropped = (0..n).filter(|&id| plan.drops(id)).count() as f64 / n as f64;
        let corrupted = (0..n).filter(|&id| plan.corrupts(id)).count() as f64 / n as f64;
        assert!((dropped - 0.1).abs() < 0.01, "drop rate {dropped} far from 0.1");
        assert!((corrupted - 0.05).abs() < 0.01, "corrupt rate {corrupted} far from 0.05");
    }

    #[test]
    fn drop_and_corrupt_streams_are_decorrelated() {
        let plan = FaultPlan {
            seed: 3,
            drop_prob: 0.5,
            corrupt_prob: 0.5,
            slow_factor: 1.0,
            events: Vec::new(),
        };
        let n = 100_000u64;
        let both = (0..n).filter(|&id| plan.drops(id) && plan.corrupts(id)).count() as f64;
        let frac = both / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "joint rate {frac} should be ~0.25 if independent");
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let a = FaultSpec::at_severity(0.5);
        assert_eq!(a.digest(), FaultSpec::at_severity(0.5).digest());
        assert_ne!(a.digest(), FaultSpec::at_severity(0.6).digest());
        assert_ne!(a.digest(), FaultSpec::none().digest());
        assert_eq!(a.digest().len(), 16, "digest is a 64-bit hex string");
    }

    #[test]
    fn severity_zero_is_none() {
        assert!(FaultSpec::at_severity(0.0).is_none());
        assert!(FaultPlan::derive(1, &FaultSpec::at_severity(0.0), 4, 1_000_000_000).is_none());
    }
}
