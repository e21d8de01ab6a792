//! # apples
//!
//! Fair comparisons in heterogeneous systems evaluation — a library
//! reproduction of *"Of Apples and Oranges: Fair Comparisons in
//! Heterogenous Systems Evaluation"* (Sadok, Panda, Sherry — HotNets
//! 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`metrics`]: typed quantities; performance metrics (direction +
//!   scalability); cost metrics with the paper's three properties
//!   (context-independence, quantifiability, end-to-end coverage);
//!   the Table 1 taxonomy; released pricing models (§3.1).
//! - [`core`]: the methodology engine — operating regimes (P4), Pareto
//!   dominance and comparison regions (Fig 2), baseline scaling with the
//!   §4.2.1 pitfall guards (P5/P6), non-scalable comparability (P7),
//!   Pareto frontiers, and evaluation reports.
//! - [`simnet`]: the discrete-event packet-processing simulator with
//!   heterogeneous device models (CPU, SmartNIC, programmable switch)
//!   and network functions (ACL firewall, NAT, DPI, flow monitor).
//! - [`power`]: utilization-driven device power models and rack
//!   footprints; a deployment's power lines are its cost inventory.
//! - [`workload`]: seeded packet workloads (RFC 2544 sizes, IMIX,
//!   Poisson/bursty arrivals, Zipf flows).
//!
//! ## Quickstart
//!
//! ```
//! use apples::prelude::*;
//!
//! // Two measured systems on the (throughput, power) plane:
//! let proposed = System::new(
//!     "firewall+switch",
//!     vec![DeviceClass::Cpu, DeviceClass::ProgrammableSwitch],
//!     OperatingPoint::new(
//!         PerfMetric::throughput_bps().value(gbps(100.0)),
//!         CostMetric::power_draw().value(watts(200.0)),
//!     ),
//! );
//! let baseline = System::new(
//!     "firewall",
//!     vec![DeviceClass::Cpu, DeviceClass::Nic],
//!     OperatingPoint::new(
//!         PerfMetric::throughput_bps().value(gbps(35.0)),
//!         CostMetric::power_draw().value(watts(100.0)),
//!     ),
//! );
//!
//! // Principle 6: generously scale the baseline into the comparison
//! // region and ask what claim the methodology licenses.
//! let result = Evaluation::new(proposed, baseline)
//!     .with_baseline_scaling(&IdealLinear)
//!     .run();
//! assert!(result.verdict.favors_proposed());
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use apples_core as core;
pub use apples_metrics as metrics;
pub use apples_power as power;
pub use apples_simnet as simnet;
pub use apples_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use apples_core::report::render_text;
    pub use apples_core::{
        audit, compare_nonscalable, detect_regime, evaluate_multi, in_comparison_region,
        pareto_frontier, perf_per_cost, rank_by_efficiency, relate, relate_multi, render_checklist,
        Amdahl, ChecklistItem, Comparability, CostCoverage, Evaluation, IdealLinear, MeasuredCurve,
        MultiPoint, MultiResult, OperatingPoint, Regime, Relation, Saturating, ScalingModel,
        Summary, System, Tolerance, Verdict,
    };
    pub use apples_metrics::cost::DeviceClass;
    pub use apples_metrics::perf::PerfMetric;
    pub use apples_metrics::quantity::{
        bps, cores, dollars, gbps, joules, luts, mbps, micros, mpps, nanos, pps, ratio, seconds,
        watts,
    };
    pub use apples_metrics::{validate_cost_metric, CostMetric, Direction, Scalability};
    pub use apples_simnet::nf::NfChain;
    pub use apples_simnet::system::{Deployment, Measurement};
    pub use apples_workload::{ArrivalProcess, PacketSizeDist, WorkloadSpec};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let p = OperatingPoint::new(
            PerfMetric::throughput_bps().value(gbps(20.0)),
            CostMetric::power_draw().value(watts(70.0)),
        );
        let b = OperatingPoint::new(
            PerfMetric::throughput_bps().value(gbps(10.0)),
            CostMetric::power_draw().value(watts(50.0)),
        );
        assert_eq!(relate(&p, &b), Relation::Incomparable);
    }
}
