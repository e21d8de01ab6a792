//! Cost metrics and the paper's three properties (§3, Principles 1–3).
//!
//! A [`CostMetric`] records whether it is context-independent (P1),
//! quantifiable (P2), and which device classes it can cover (the input to
//! the end-to-end coverage check, P3). [`validate_cost_metric`] turns
//! those properties into concrete [`PrincipleViolation`] diagnostics for
//! a specific comparison, so an evaluation can refuse — or at least
//! flag — an unfair metric choice before producing numbers.

use crate::direction::Direction;
use crate::quantity::Quantity;
use crate::unit::Unit;
use std::fmt;

/// The broad classes of processing hardware that appear in
/// accelerator-based systems. Used to decide whether a cost metric can
/// cover a component at all (e.g. "number of FPGA LUTs" cannot be
/// measured for a CPU, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceClass {
    /// General-purpose CPU (host cores).
    Cpu,
    /// Conventional (dumb) NIC.
    Nic,
    /// SmartNIC with on-board processing cores.
    SmartNic,
    /// FPGA (standalone or on a NIC).
    Fpga,
    /// Programmable switch (e.g. a match-action pipeline).
    ProgrammableSwitch,
    /// GPU accelerator.
    Gpu,
    /// Memory devices (DRAM/HBM) when accounted separately.
    Memory,
}

impl DeviceClass {
    /// All device classes, for exhaustive coverage checks.
    pub const ALL: [DeviceClass; 7] = [
        DeviceClass::Cpu,
        DeviceClass::Nic,
        DeviceClass::SmartNic,
        DeviceClass::Fpga,
        DeviceClass::ProgrammableSwitch,
        DeviceClass::Gpu,
        DeviceClass::Memory,
    ];
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceClass::Cpu => "CPU",
            DeviceClass::Nic => "NIC",
            DeviceClass::SmartNic => "SmartNIC",
            DeviceClass::Fpga => "FPGA",
            DeviceClass::ProgrammableSwitch => "programmable switch",
            DeviceClass::Gpu => "GPU",
            DeviceClass::Memory => "memory",
        };
        f.write_str(s)
    }
}

/// Which device classes a cost metric can be measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverageScope {
    /// Measurable on every device class (power, price, rack space, …).
    Universal,
    /// Measurable only on the listed device classes ("number of cores" on
    /// CPUs and SmartNIC cores; "LUTs" on FPGAs).
    Only(Vec<DeviceClass>),
}

impl CoverageScope {
    /// Whether the metric can be measured on `class`.
    pub fn covers(&self, class: DeviceClass) -> bool {
        match self {
            CoverageScope::Universal => true,
            CoverageScope::Only(classes) => classes.contains(&class),
        }
    }
}

/// A cost metric descriptor carrying the paper's three §3 properties.
///
/// Costs always improve downward; there is no direction field because a
/// "higher is better" cost is a contradiction in terms.
#[derive(Debug, Clone, PartialEq)]
pub struct CostMetric {
    name: &'static str,
    unit: Unit,
    /// Principle 1: identical deployments yield identical costs.
    context_independent: bool,
    /// Principle 2: measurable and comparable head-to-head today.
    quantifiable: bool,
    /// Which devices the metric can be measured on (input to Principle 3).
    scope: CoverageScope,
    /// Free-text caveat rendered in reports (e.g. rack space's cooling/
    /// power caveat from §3.4).
    caveat: Option<&'static str>,
}

impl CostMetric {
    /// Defines a custom cost metric.
    pub fn new(
        name: &'static str,
        unit: Unit,
        context_independent: bool,
        quantifiable: bool,
        scope: CoverageScope,
    ) -> Self {
        CostMetric { name, unit, context_independent, quantifiable, scope, caveat: None }
    }

    /// Attaches a caveat string rendered alongside the metric in reports.
    pub fn with_caveat(mut self, caveat: &'static str) -> Self {
        self.caveat = Some(caveat);
        self
    }

    // --- The §3.4 / Table 1 well-known metrics -------------------------

    /// Power draw in watts — the paper's recommended default: context-
    /// independent, quantifiable, and composable end-to-end.
    pub fn power_draw() -> Self {
        CostMetric::new("power draw", Unit::Watts, true, true, CoverageScope::Universal)
    }

    /// Heat dissipation in BTU/h (Table 1, context-independent).
    pub fn heat_dissipation() -> Self {
        CostMetric::new("heat dissipation", Unit::BtuPerHour, true, true, CoverageScope::Universal)
    }

    /// Silicon die area in mm² (Table 1, context-independent).
    pub fn die_area() -> Self {
        CostMetric::new(
            "silicon die area",
            Unit::SquareMillimeters,
            true,
            true,
            CoverageScope::Universal,
        )
    }

    /// Number of CPU cores (context-independent and quantifiable, but not
    /// end-to-end across device classes — §3.4).
    pub fn cpu_cores() -> Self {
        CostMetric::new(
            "number of CPU cores",
            Unit::Cores,
            true,
            true,
            CoverageScope::Only(vec![DeviceClass::Cpu]),
        )
    }

    /// Number of FPGA LUTs (same caveat as cores — §3.3/§3.4).
    pub fn fpga_luts() -> Self {
        CostMetric::new(
            "number of FPGA LUTs",
            Unit::Luts,
            true,
            true,
            CoverageScope::Only(vec![DeviceClass::Fpga]),
        )
    }

    /// Memory usage in bytes (Table 1, context-independent).
    pub fn memory_usage() -> Self {
        CostMetric::new("memory usage", Unit::Bytes, true, true, CoverageScope::Universal)
    }

    /// Rack space. Quantifiable and end-to-end, but only context-
    /// independent with qualifying information about power/cooling
    /// density (§3.4) — we keep the flag true and attach the caveat.
    pub fn rack_space() -> Self {
        CostMetric::new("rack space", Unit::RackUnits, true, true, CoverageScope::Universal)
            .with_caveat(
                "standard rack units assume comparable power and cooling density; \
                 report both alongside the number (\u{a7}3.4)",
            )
    }

    /// Total cost of ownership — context-dependent (§3.1): prices, energy
    /// and land costs vary by purchaser, location, and time.
    pub fn tco() -> Self {
        CostMetric::new(
            "total cost of ownership",
            Unit::Dollars,
            false,
            true,
            CoverageScope::Universal,
        )
        .with_caveat("release the pricing model used to compute it (\u{a7}3.1)")
    }

    /// Hardware purchase price — context-dependent (bulk discounts, time).
    pub fn hardware_price() -> Self {
        CostMetric::new("hardware price", Unit::Dollars, false, true, CoverageScope::Universal)
    }

    /// Carbon footprint — context-dependent and, per §3.2, lacking an
    /// agreed measurement methodology (not yet quantifiable).
    pub fn carbon_footprint() -> Self {
        CostMetric::new("carbon footprint", Unit::KgCo2e, false, false, CoverageScope::Universal)
    }

    // --- Accessors ------------------------------------------------------

    /// The metric's human-readable name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The unit of measurement.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Principle 1 flag.
    pub fn is_context_independent(&self) -> bool {
        self.context_independent
    }

    /// Principle 2 flag.
    pub fn is_quantifiable(&self) -> bool {
        self.quantifiable
    }

    /// Device-class coverage scope.
    pub fn scope(&self) -> &CoverageScope {
        &self.scope
    }

    /// Optional caveat for reports.
    pub fn caveat(&self) -> Option<&'static str> {
        self.caveat
    }

    /// Costs always improve downward.
    pub fn direction(&self) -> Direction {
        Direction::LowerIsBetter
    }

    /// Wraps a raw measurement, checking the unit.
    pub fn value(&self, q: Quantity) -> CostValue {
        assert_eq!(
            q.unit(),
            self.unit,
            "measurement unit {} does not match cost metric '{}' ({})",
            q.unit(),
            self.name,
            self.unit
        );
        CostValue { metric: self.clone(), quantity: q }
    }
}

impl fmt::Display for CostMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.unit)
    }
}

/// A measured cost tagged with its metric.
#[derive(Debug, Clone, PartialEq)]
pub struct CostValue {
    metric: CostMetric,
    quantity: Quantity,
}

impl CostValue {
    /// The metric this value measures.
    pub fn metric(&self) -> &CostMetric {
        &self.metric
    }

    /// The measured quantity.
    pub fn quantity(&self) -> Quantity {
        self.quantity
    }

    /// True when `self` is a strictly lower (better) cost than `other`.
    pub fn is_better_than(&self, other: &CostValue) -> bool {
        self.assert_same_metric(other);
        self.quantity.value() < other.quantity.value()
    }

    /// True when `self` costs no more than `other`.
    pub fn is_at_least_as_good_as(&self, other: &CostValue) -> bool {
        self.assert_same_metric(other);
        self.quantity.value() <= other.quantity.value()
    }

    /// True when the two costs are equal within `rel_tol`.
    pub fn approx_eq(&self, other: &CostValue, rel_tol: f64) -> bool {
        self.metric == other.metric && self.quantity.approx_eq(other.quantity, rel_tol)
    }

    fn assert_same_metric(&self, other: &CostValue) {
        assert_eq!(
            self.metric, other.metric,
            "cannot compare values of different cost metrics: '{}' vs '{}'",
            self.metric.name, other.metric.name
        );
    }
}

impl fmt::Display for CostValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.metric.name, self.quantity)
    }
}

/// A violation of one of the paper's §3 principles, produced by
/// [`validate_cost_metric`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrincipleViolation {
    /// Principle 1: the metric's value depends on deployment context.
    ContextDependent {
        /// Metric name.
        metric: &'static str,
    },
    /// Principle 2: no agreed way to measure or compare the metric.
    NotQuantifiable {
        /// Metric name.
        metric: &'static str,
    },
    /// Principle 3: the metric cannot be measured on a component of one
    /// of the systems being compared.
    IncompleteCoverage {
        /// Metric name.
        metric: &'static str,
        /// Name of the system with an uncovered component.
        system: String,
        /// The uncovered device class.
        device: DeviceClass,
    },
    /// Principle 3 (composition form): the metric covers each component,
    /// but its per-device readings cannot be added into one end-to-end
    /// number across different device classes (cores + NIC cores, LUTs +
    /// cores, …).
    NotComposable {
        /// Metric name.
        metric: &'static str,
        /// Name of the system whose components cannot be summed.
        system: String,
    },
}

impl fmt::Display for PrincipleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrincipleViolation::ContextDependent { metric } => write!(
                f,
                "principle 1 violation: '{metric}' is context-dependent; identical deployments \
                 can yield different values"
            ),
            PrincipleViolation::NotQuantifiable { metric } => {
                write!(f, "principle 2 violation: '{metric}' has no agreed measurement methodology")
            }
            PrincipleViolation::IncompleteCoverage { metric, system, device } => write!(
                f,
                "principle 3 violation: '{metric}' cannot be measured on the {device} used by \
                 system '{system}'"
            ),
            PrincipleViolation::NotComposable { metric, system } => write!(
                f,
                "principle 3 violation: '{metric}' readings on the heterogeneous devices of \
                 system '{system}' cannot be summed into one end-to-end cost"
            ),
        }
    }
}

/// Checks a cost metric against the paper's three principles for a
/// concrete comparison, where each system is described by its name and
/// the device classes it uses. Returns every violation found (empty means
/// the metric is a fair choice for this comparison).
///
/// # Examples
///
/// §3.3's example: FPGA LUTs cannot cover a CPU-only system, but power
/// covers both.
///
/// ```
/// use apples_metrics::{validate_cost_metric, CostMetric};
/// use apples_metrics::cost::DeviceClass;
///
/// let systems: &[(&str, &[DeviceClass])] = &[
///     ("cpu-only", &[DeviceClass::Cpu]),
///     ("fpga+cpu", &[DeviceClass::Fpga, DeviceClass::Cpu]),
/// ];
/// assert!(!validate_cost_metric(&CostMetric::fpga_luts(), systems).is_empty());
/// assert!(validate_cost_metric(&CostMetric::power_draw(), systems).is_empty());
/// ```
pub fn validate_cost_metric(
    metric: &CostMetric,
    systems: &[(&str, &[DeviceClass])],
) -> Vec<PrincipleViolation> {
    let mut violations = Vec::new();
    if !metric.is_context_independent() {
        violations.push(PrincipleViolation::ContextDependent { metric: metric.name() });
    }
    if !metric.is_quantifiable() {
        violations.push(PrincipleViolation::NotQuantifiable { metric: metric.name() });
    }
    for (system, devices) in systems {
        for device in *devices {
            if !metric.scope().covers(*device) {
                violations.push(PrincipleViolation::IncompleteCoverage {
                    metric: metric.name(),
                    system: (*system).to_owned(),
                    device: *device,
                });
            }
        }
        // Distinct covered device classes whose readings cannot be summed.
        let mut covered: Vec<DeviceClass> =
            devices.iter().copied().filter(|d| metric.scope().covers(*d)).collect();
        covered.sort();
        covered.dedup();
        if covered.len() > 1 && !metric.unit().composes_across_devices() {
            violations.push(PrincipleViolation::NotComposable {
                metric: metric.name(),
                system: (*system).to_owned(),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantity::{cores, watts};

    const CPU_ONLY: &[DeviceClass] = &[DeviceClass::Cpu, DeviceClass::Nic];
    const FPGA_SYSTEM: &[DeviceClass] = &[DeviceClass::Cpu, DeviceClass::Fpga];

    #[test]
    fn power_passes_all_principles() {
        let v = validate_cost_metric(
            &CostMetric::power_draw(),
            &[("baseline", CPU_ONLY), ("proposed", FPGA_SYSTEM)],
        );
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn luts_fail_coverage_for_cpu_only_system() {
        // §3.3's example: FPGA LUTs cannot cover a CPU-only system.
        let v = validate_cost_metric(
            &CostMetric::fpga_luts(),
            &[("baseline", CPU_ONLY), ("proposed", FPGA_SYSTEM)],
        );
        assert!(v.iter().any(|x| matches!(
            x,
            PrincipleViolation::IncompleteCoverage { device: DeviceClass::Cpu, .. }
        )));
    }

    #[test]
    fn cores_fail_end_to_end_for_fpga_system() {
        // §3.3's second example: core counts miss the FPGA's cost.
        let v = validate_cost_metric(&CostMetric::cpu_cores(), &[("proposed", FPGA_SYSTEM)]);
        assert!(v.iter().any(|x| matches!(
            x,
            PrincipleViolation::IncompleteCoverage { device: DeviceClass::Fpga, .. }
        )));
    }

    #[test]
    fn tco_flags_context_dependence() {
        let v = validate_cost_metric(&CostMetric::tco(), &[("any", CPU_ONLY)]);
        assert!(v.iter().any(|x| matches!(x, PrincipleViolation::ContextDependent { .. })));
    }

    #[test]
    fn carbon_flags_both_p1_and_p2() {
        let v = validate_cost_metric(&CostMetric::carbon_footprint(), &[("any", CPU_ONLY)]);
        assert!(v.iter().any(|x| matches!(x, PrincipleViolation::ContextDependent { .. })));
        assert!(v.iter().any(|x| matches!(x, PrincipleViolation::NotQuantifiable { .. })));
    }

    #[test]
    fn cores_not_composable_across_cpu_and_smartnic() {
        // A metric defined over both CPU and SmartNIC cores still can't
        // add them into one number.
        let m = CostMetric::new(
            "processing cores",
            Unit::Cores,
            true,
            true,
            CoverageScope::Only(vec![DeviceClass::Cpu, DeviceClass::SmartNic]),
        );
        let v =
            validate_cost_metric(&m, &[("offload", &[DeviceClass::Cpu, DeviceClass::SmartNic])]);
        assert!(v.iter().any(|x| matches!(x, PrincipleViolation::NotComposable { .. })));
    }

    #[test]
    fn cost_comparisons_are_lower_is_better() {
        let m = CostMetric::power_draw();
        assert!(m.value(watts(50.0)).is_better_than(&m.value(watts(70.0))));
        assert!(m.value(watts(50.0)).is_at_least_as_good_as(&m.value(watts(50.0))));
    }

    #[test]
    #[should_panic(expected = "does not match cost metric")]
    fn wrong_unit_rejected() {
        let _ = CostMetric::power_draw().value(cores(4.0));
    }

    #[test]
    fn violation_messages_name_the_principles() {
        let v = PrincipleViolation::ContextDependent { metric: "TCO" };
        assert!(v.to_string().contains("principle 1"));
        let v = PrincipleViolation::NotQuantifiable { metric: "carbon" };
        assert!(v.to_string().contains("principle 2"));
    }
}
