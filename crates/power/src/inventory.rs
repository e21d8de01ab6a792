//! System inventories and end-to-end cost vectors.
//!
//! A [`SystemInventory`] is the full bill of hardware a deployment needs
//! to produce its output — the paper's Principle 3 demands that cost
//! cover *all* of it. [`CostVector`] aggregates every Table 1 metric the
//! inventory supports at once, refusing (with `None`) the ones that do
//! not compose across the inventory's device classes.

use crate::devices::DeviceSpec;
use apples_metrics::cost::DeviceClass;
use apples_metrics::pricing::{BomItem, PricingModel};
use apples_metrics::quantity::{bytes, dollars, luts as luts_q, rack_units, watts, Quantity};
use apples_metrics::quantity::{cores as cores_q, watts_to_btu_per_hour};

/// One inventory line: a device and how many of it the system uses.
#[derive(Debug, Clone, PartialEq)]
pub struct InventoryLine {
    /// The device.
    pub device: DeviceSpec,
    /// How many instances the deployment uses.
    pub count: u32,
    /// Steady-state utilization assumed for power reporting, `[0, 1]`.
    pub utilization: f64,
}

/// A deployment's complete hardware inventory.
///
/// # Examples
///
/// ```
/// use apples_power::devices::DeviceSpec;
/// use apples_power::inventory::SystemInventory;
///
/// let inv = SystemInventory::new()
///     .add(DeviceSpec::host_chassis(), 1, 1.0)
///     .add(DeviceSpec::xeon_core(), 2, 0.5)
///     .add(DeviceSpec::smartnic_100g(), 1, 0.9);
/// let v = inv.cost_vector();
/// assert!(v.watts > 70.0);
/// // CPU cores and SmartNIC cores refuse to compose (§3.4):
/// assert!(v.core_count().is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SystemInventory {
    lines: Vec<InventoryLine>,
}

impl SystemInventory {
    /// Creates an empty inventory.
    pub fn new() -> Self {
        SystemInventory::default()
    }

    /// Adds `count` instances of `device` at the given steady-state
    /// utilization.
    pub fn add(mut self, device: DeviceSpec, count: u32, utilization: f64) -> Self {
        assert!((0.0..=1.0).contains(&utilization), "utilization must be in [0,1]");
        self.lines.push(InventoryLine { device, count, utilization });
        self
    }

    /// The inventory lines.
    pub fn lines(&self) -> &[InventoryLine] {
        &self.lines
    }

    /// The distinct device classes present (for Principle 3 validation).
    pub fn device_classes(&self) -> Vec<DeviceClass> {
        let mut classes: Vec<DeviceClass> = self.lines.iter().map(|l| l.device.class).collect();
        classes.sort();
        classes.dedup();
        classes
    }

    /// Aggregates the cost vector at the configured utilizations.
    pub fn cost_vector(&self) -> CostVector {
        let mut v = CostVector::default();
        let mut core_classes: Vec<DeviceClass> = Vec::new();
        for l in &self.lines {
            let n = f64::from(l.count);
            v.watts += n * l.device.watts_at(l.utilization);
            v.rack_units += n * l.device.rack_units;
            v.die_area_mm2 += n * l.device.die_area_mm2;
            v.memory_bytes += n * l.device.memory_bytes;
            v.luts += u64::from(l.count) * l.device.luts;
            if l.device.cores > 0 {
                v.cores += l.count * l.device.cores;
                if !core_classes.contains(&l.device.class) {
                    core_classes.push(l.device.class);
                }
            }
        }
        // Core counts only compose within a single device class (§3.4).
        v.cores_composable = core_classes.len() <= 1;
        v
    }

    /// The bill of materials for pricing under a released model.
    pub fn bom(&self) -> Vec<BomItem> {
        self.lines.iter().map(|l| BomItem::new(l.device.part, l.count)).collect()
    }

    /// Yearly TCO under a released pricing model, using the inventory's
    /// steady-state power.
    pub fn yearly_tco(
        &self,
        model: &PricingModel,
    ) -> Result<Quantity, apples_metrics::pricing::PricingError> {
        model.yearly_tco(&self.bom(), watts(self.cost_vector().watts))
    }
}

/// Every Table 1 cost this crate can compute for an inventory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostVector {
    /// End-to-end power at the configured utilizations, watts.
    pub watts: f64,
    /// Total rack footprint, rack units.
    pub rack_units: f64,
    /// Total silicon die area, mm².
    pub die_area_mm2: f64,
    /// Total device memory, bytes.
    pub memory_bytes: f64,
    /// Total processing cores, **meaningful only when
    /// [`Self::cores_composable`]** (§3.4: cores on different device
    /// classes do not add).
    pub cores: u32,
    /// Whether the `cores` total spans a single device class.
    pub cores_composable: bool,
    /// Total FPGA LUTs.
    pub luts: u64,
}

impl CostVector {
    /// Power as a typed quantity.
    pub fn power(&self) -> Quantity {
        watts(self.watts)
    }

    /// Heat dissipation (all consumed power becomes heat).
    #[expect(
        clippy::expect_used,
        reason = "invariant: power() constructs its Quantity with the watts() constructor two lines up, so the unit check cannot fail"
    )]
    pub fn heat(&self) -> Quantity {
        watts_to_btu_per_hour(self.power()).expect("power is watts")
    }

    /// Rack space as a typed quantity.
    pub fn rack_space(&self) -> Quantity {
        rack_units(self.rack_units)
    }

    /// Memory as a typed quantity.
    pub fn memory(&self) -> Quantity {
        bytes(self.memory_bytes)
    }

    /// Core count as a typed quantity, or `None` when cores span device
    /// classes and therefore do not compose (Principle 3).
    pub fn core_count(&self) -> Option<Quantity> {
        if self.cores_composable {
            Some(cores_q(f64::from(self.cores)))
        } else {
            None
        }
    }

    /// LUT count as a typed quantity.
    pub fn lut_count(&self) -> Quantity {
        luts_q(self.luts as f64)
    }

    /// Hardware capex under a pricing model (context-dependent; prefer
    /// reporting the model alongside the number).
    pub fn priced(&self, model: &PricingModel, bom: &[BomItem]) -> Quantity {
        model.capex(bom).unwrap_or_else(|_| dollars(f64::NAN.max(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smartnic_host() -> SystemInventory {
        SystemInventory::new()
            .add(DeviceSpec::host_chassis(), 1, 1.0)
            .add(DeviceSpec::xeon_core(), 1, 0.8)
            .add(DeviceSpec::smartnic_100g(), 1, 1.0)
    }

    #[test]
    fn watts_compose_end_to_end() {
        let v = smartnic_host().cost_vector();
        // 20 + (1 + 0.8*29) + 40 = 84.2 W (§4.2's proposed-system shape:
        // above the 50 W one-core baseline, below 2x of it).
        assert!((v.watts - 84.2).abs() < 1e-9, "got {}", v.watts);
        assert!((v.heat().value() - 84.2 * 3.412_142).abs() < 1e-3);
    }

    #[test]
    fn cores_refuse_to_compose_across_cpu_and_smartnic() {
        let v = smartnic_host().cost_vector();
        assert!(!v.cores_composable);
        assert_eq!(v.core_count(), None);
    }

    #[test]
    fn cores_compose_within_one_class() {
        let v = SystemInventory::new()
            .add(DeviceSpec::host_chassis(), 1, 1.0)
            .add(DeviceSpec::xeon_core(), 4, 1.0)
            .cost_vector();
        assert!(v.cores_composable);
        assert_eq!(v.core_count().unwrap().value(), 4.0);
    }

    #[test]
    fn device_classes_deduplicated_and_sorted() {
        let classes = smartnic_host().device_classes();
        assert_eq!(classes, vec![DeviceClass::Cpu, DeviceClass::SmartNic]);
    }

    #[test]
    fn bom_and_tco_price_the_inventory() {
        let inv = smartnic_host();
        let model = PricingModel::campus_testbed_2023();
        let bom = inv.bom();
        assert_eq!(bom.len(), 3);
        let tco = inv.yearly_tco(&model).unwrap();
        assert!(tco.value() > 0.0);
        // More hardware, more TCO.
        let bigger = inv.add(DeviceSpec::xeon_core(), 8, 1.0);
        assert!(bigger.yearly_tco(&model).unwrap().value() > tco.value());
    }

    #[test]
    fn empty_inventory_is_all_zero() {
        let v = SystemInventory::new().cost_vector();
        assert_eq!(v.watts, 0.0);
        assert_eq!(v.cores, 0);
        assert!(v.cores_composable);
        assert_eq!(v.lut_count().value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn bad_utilization_rejected() {
        let _ = SystemInventory::new().add(DeviceSpec::xeon_core(), 1, 1.5);
    }

    #[test]
    fn rack_space_accumulates() {
        let v = SystemInventory::new()
            .add(DeviceSpec::host_chassis(), 2, 1.0)
            .add(DeviceSpec::programmable_switch_32x100g(), 1, 0.5)
            .cost_vector();
        assert_eq!(v.rack_space().value(), 3.0);
    }
}
