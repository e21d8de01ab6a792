//! The device catalog: synthetic but representative hardware specs.
//!
//! We have no SmartNIC/FPGA/switch testbed (the reproduction gate), so
//! each device is described by public-datasheet-magnitude constants:
//! its power envelope and its rack footprint. The experiments calibrate
//! *deployment-level* configurations against the paper's §4 worked
//! examples; the catalog provides the per-device building blocks.

use crate::model::LinearPower;
use apples_metrics::cost::DeviceClass;

/// A concrete device model: one line of a deployment's inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: &'static str,
    /// Device class for Principle 3 coverage checks.
    pub class: DeviceClass,
    /// Utilization-linear power model.
    pub power: LinearPower,
    /// Rack footprint in rack units (fractional for components that
    /// share a chassis).
    pub rack_units: f64,
}

impl DeviceSpec {
    /// A server chassis (fans, PSU losses, board) *without* any cores:
    /// the idle floor every host pays once. ~20 W idle.
    pub fn host_chassis() -> Self {
        DeviceSpec {
            name: "host chassis",
            class: DeviceClass::Cpu,
            power: LinearPower::constant(20.0),
            rack_units: 1.0,
        }
    }

    /// One server-class x86 core: ~1 W idle (deep C-state), ~30 W at full
    /// load including its share of uncore/DRAM activity. Matches the §4.2
    /// example's marginal cost of a busy core (+30 W).
    pub fn xeon_core() -> Self {
        DeviceSpec {
            name: "x86 core",
            class: DeviceClass::Cpu,
            power: LinearPower::new(1.0, 30.0),
            rack_units: 0.0,
        }
    }

    /// A conventional 100 GbE NIC: fixed-function, nearly flat draw.
    pub fn dumb_nic_100g() -> Self {
        DeviceSpec {
            name: "100G NIC",
            class: DeviceClass::Nic,
            power: LinearPower::new(4.0, 6.0),
            rack_units: 0.0,
        }
    }

    /// A 100 GbE SmartNIC with embedded processing cores: higher idle
    /// than a dumb NIC (the SoC is always on), ~40 W at full load —
    /// BlueField-class envelopes.
    pub fn smartnic_100g() -> Self {
        DeviceSpec {
            name: "100G SmartNIC",
            class: DeviceClass::SmartNic,
            power: LinearPower::new(25.0, 40.0),
            rack_units: 0.0,
        }
    }

    /// A 100 GbE FPGA NIC: reconfigurable pipeline, ~35 W at full load.
    pub fn fpga_nic_100g() -> Self {
        DeviceSpec {
            name: "100G FPGA NIC",
            class: DeviceClass::Fpga,
            power: LinearPower::new(20.0, 35.0),
            rack_units: 0.0,
        }
    }

    /// An inference/packet-processing GPU accelerator (T4-class):
    /// meaningful idle draw, high peak; the batching device.
    pub fn gpu_accelerator() -> Self {
        DeviceSpec {
            name: "GPU accelerator",
            class: DeviceClass::Gpu,
            power: LinearPower::new(30.0, 70.0),
            rack_units: 0.0,
        }
    }

    /// A 32x100 GbE programmable (match-action) switch: dominated by
    /// SerDes, so close to load-independent — ~100 W idle, 150 W peak.
    pub fn programmable_switch_32x100g() -> Self {
        DeviceSpec {
            name: "32x100G programmable switch",
            class: DeviceClass::ProgrammableSwitch,
            power: LinearPower::new(100.0, 150.0),
            rack_units: 1.0,
        }
    }

    /// Average watts at the given utilization.
    pub fn watts_at(&self, utilization: f64) -> f64 {
        self.power.watts_at(utilization)
    }

    /// Returns a copy with the whole power envelope scaled by `factor`
    /// — the lever sensitivity studies turn to ask how much a verdict
    /// depends on the synthetic constants.
    pub fn with_power_scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.power =
            LinearPower::new(self.power.idle_watts * factor, self.power.peak_watts * factor);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_42_marginal_core_power_matches() {
        // §4.2: baseline 1 core = 50 W, 2 cores = 80 W -> +30 W per busy
        // core. chassis (20) + core at full load (30) = 50.
        let chassis = DeviceSpec::host_chassis();
        let core = DeviceSpec::xeon_core();
        let one = chassis.watts_at(1.0) + core.watts_at(1.0);
        let two = chassis.watts_at(1.0) + 2.0 * core.watts_at(1.0);
        assert!((one - 50.0).abs() < 1e-9, "one core host = {one} W");
        assert!((two - 80.0).abs() < 1e-9, "two core host = {two} W");
    }

    #[test]
    fn smartnic_offload_power_has_the_section_42_shape() {
        // §4.2's shape: the SmartNIC system draws more than the 1-core
        // baseline (50 W) but well under 2x of it. At 80% core load:
        // 20 + (1 + 0.8*29) + 40 = 84.2 W.
        let w = DeviceSpec::host_chassis().watts_at(1.0)
            + DeviceSpec::xeon_core().watts_at(0.8)
            + DeviceSpec::smartnic_100g().watts_at(1.0);
        assert!((w - 84.2).abs() < 1e-9, "got {w}");
        let baseline_1c =
            DeviceSpec::host_chassis().watts_at(1.0) + DeviceSpec::xeon_core().watts_at(1.0);
        assert!(w > baseline_1c && w < 2.0 * baseline_1c);
    }

    #[test]
    fn accelerators_have_higher_idle_floors_than_dumb_equivalents() {
        assert!(
            DeviceSpec::smartnic_100g().power.idle_watts
                > DeviceSpec::dumb_nic_100g().power.idle_watts
        );
        assert!(
            DeviceSpec::fpga_nic_100g().power.idle_watts
                > DeviceSpec::dumb_nic_100g().power.idle_watts
        );
    }

    #[test]
    fn switch_is_mostly_load_independent() {
        let s = DeviceSpec::programmable_switch_32x100g();
        assert!(s.power.proportionality() < 0.5);
    }
}
