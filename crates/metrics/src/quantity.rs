//! Unit-checked scalar quantities.
//!
//! A [`Quantity`] is a finite `f64` value paired with a [`Unit`]. Same-unit
//! quantities support arithmetic; cross-unit arithmetic is a programming
//! error surfaced through the checked APIs (or a panic via the operator
//! sugar, with an explanatory message).

use crate::unit::Unit;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A scalar measurement: a finite value in a specific [`Unit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantity {
    value: f64,
    unit: Unit,
}

/// Error returned by checked arithmetic on [`Quantity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantityError {
    /// Tried to combine quantities measured in different units.
    UnitMismatch {
        /// Unit of the left operand.
        left: Unit,
        /// Unit of the right operand.
        right: Unit,
    },
    /// The resulting value would not be finite (overflow, 0/0, …).
    NotFinite,
}

impl fmt::Display for QuantityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantityError::UnitMismatch { left, right } => {
                write!(f, "unit mismatch: {left} vs {right}")
            }
            QuantityError::NotFinite => write!(f, "result is not a finite number"),
        }
    }
}

impl std::error::Error for QuantityError {}

impl Quantity {
    /// Creates a quantity. Panics if `value` is not finite; measurements
    /// are always finite, so a NaN/inf here is a bug at the call site.
    pub fn new(value: f64, unit: Unit) -> Self {
        assert!(value.is_finite(), "quantity value must be finite, got {value}");
        Quantity { value, unit }
    }

    /// The raw scalar value.
    pub fn value(self) -> f64 {
        self.value
    }

    /// The unit of measurement.
    pub fn unit(self) -> Unit {
        self.unit
    }

    /// Checked addition: both operands must share a unit.
    pub fn checked_add(self, rhs: Quantity) -> Result<Quantity, QuantityError> {
        self.combine(rhs, |a, b| a + b)
    }

    /// Checked subtraction: both operands must share a unit.
    pub fn checked_sub(self, rhs: Quantity) -> Result<Quantity, QuantityError> {
        self.combine(rhs, |a, b| a - b)
    }

    /// Scales the quantity by a dimensionless factor.
    pub fn scale(self, factor: f64) -> Quantity {
        Quantity::new(self.value * factor, self.unit)
    }

    /// Dimensionless ratio of two same-unit quantities (`self / rhs`).
    pub fn ratio_to(self, rhs: Quantity) -> Result<f64, QuantityError> {
        if self.unit != rhs.unit {
            return Err(QuantityError::UnitMismatch { left: self.unit, right: rhs.unit });
        }
        let r = self.value / rhs.value;
        if r.is_finite() {
            Ok(r)
        } else {
            Err(QuantityError::NotFinite)
        }
    }

    /// True when the two quantities share a unit and their values differ
    /// by at most `rel_tol` of the larger magnitude (used by operating-
    /// regime detection, §4.1).
    pub fn approx_eq(self, rhs: Quantity, rel_tol: f64) -> bool {
        if self.unit != rhs.unit {
            return false;
        }
        let scale = self.value.abs().max(rhs.value.abs());
        if scale == 0.0 {
            return true;
        }
        (self.value - rhs.value).abs() <= rel_tol * scale
    }

    /// Total order between same-unit quantities. Returns `None` when the
    /// units differ.
    pub fn partial_cmp_checked(self, rhs: Quantity) -> Option<Ordering> {
        if self.unit != rhs.unit {
            return None;
        }
        // Values are finite by construction, so partial_cmp never fails.
        self.value.partial_cmp(&rhs.value)
    }

    fn combine(
        self,
        rhs: Quantity,
        op: impl Fn(f64, f64) -> f64,
    ) -> Result<Quantity, QuantityError> {
        if self.unit != rhs.unit {
            return Err(QuantityError::UnitMismatch { left: self.unit, right: rhs.unit });
        }
        let v = op(self.value, rhs.value);
        if v.is_finite() {
            Ok(Quantity { value: v, unit: self.unit })
        } else {
            Err(QuantityError::NotFinite)
        }
    }
}

impl Add for Quantity {
    type Output = Quantity;
    #[expect(
        clippy::expect_used,
        reason = "documented operator sugar: mixing units via + is a programming error; checked_add is the fallible API"
    )]
    fn add(self, rhs: Quantity) -> Quantity {
        self.checked_add(rhs).expect("quantity addition")
    }
}

impl Sub for Quantity {
    type Output = Quantity;
    #[expect(
        clippy::expect_used,
        reason = "documented operator sugar: mixing units via - is a programming error; checked_sub is the fallible API"
    )]
    fn sub(self, rhs: Quantity) -> Quantity {
        self.checked_sub(rhs).expect("quantity subtraction")
    }
}

impl Mul<f64> for Quantity {
    type Output = Quantity;
    fn mul(self, rhs: f64) -> Quantity {
        self.scale(rhs)
    }
}

impl Div<f64> for Quantity {
    type Output = Quantity;
    fn div(self, rhs: f64) -> Quantity {
        self.scale(1.0 / rhs)
    }
}

impl fmt::Display for Quantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Pick an SI prefix for the value, keeping the unit symbol intact.
        let (scaled, prefix) = si_prefix(self.value);
        if self.unit == Unit::Ratio {
            write!(f, "{:.4}", self.value)
        } else if prefix.is_empty() {
            write!(f, "{:.3} {}", scaled, self.unit)
        } else {
            write!(f, "{:.3} {}{}", scaled, prefix, self.unit)
        }
    }
}

fn si_prefix(v: f64) -> (f64, &'static str) {
    let a = v.abs();
    if a >= 1e12 {
        (v / 1e12, "T")
    } else if a >= 1e9 {
        (v / 1e9, "G")
    } else if a >= 1e6 {
        (v / 1e6, "M")
    } else if a >= 1e3 {
        (v / 1e3, "k")
    } else if a == 0.0 || a >= 1.0 {
        (v, "")
    } else if a >= 1e-3 {
        (v * 1e3, "m")
    } else if a >= 1e-6 {
        (v * 1e6, "u")
    } else {
        (v * 1e9, "n")
    }
}

// ---------------------------------------------------------------------------
// Convenience constructors for the units used throughout the workspace.
// ---------------------------------------------------------------------------

/// Bits per second.
pub fn bps(v: f64) -> Quantity {
    Quantity::new(v, Unit::BitsPerSecond)
}

/// Gigabits per second.
pub fn gbps(v: f64) -> Quantity {
    bps(v * 1e9)
}

/// Megabits per second.
pub fn mbps(v: f64) -> Quantity {
    bps(v * 1e6)
}

/// Packets per second.
pub fn pps(v: f64) -> Quantity {
    Quantity::new(v, Unit::PacketsPerSecond)
}

/// Millions of packets per second.
pub fn mpps(v: f64) -> Quantity {
    pps(v * 1e6)
}

/// Seconds.
pub fn seconds(v: f64) -> Quantity {
    Quantity::new(v, Unit::Seconds)
}

/// Microseconds.
pub fn micros(v: f64) -> Quantity {
    seconds(v * 1e-6)
}

/// Nanoseconds.
pub fn nanos(v: f64) -> Quantity {
    seconds(v * 1e-9)
}

/// Watts.
pub fn watts(v: f64) -> Quantity {
    Quantity::new(v, Unit::Watts)
}

/// Joules.
pub fn joules(v: f64) -> Quantity {
    Quantity::new(v, Unit::Joules)
}

/// CPU cores.
pub fn cores(v: f64) -> Quantity {
    Quantity::new(v, Unit::Cores)
}

/// FPGA lookup tables.
pub fn luts(v: f64) -> Quantity {
    Quantity::new(v, Unit::Luts)
}

/// Bytes of memory.
pub fn bytes(v: f64) -> Quantity {
    Quantity::new(v, Unit::Bytes)
}

/// Rack units.
pub fn rack_units(v: f64) -> Quantity {
    Quantity::new(v, Unit::RackUnits)
}

/// US dollars.
pub fn dollars(v: f64) -> Quantity {
    Quantity::new(v, Unit::Dollars)
}

/// Dimensionless ratio.
pub fn ratio(v: f64) -> Quantity {
    Quantity::new(v, Unit::Ratio)
}

/// Converts a power draw in watts to heat dissipation in BTU/h
/// (1 W = 3.412142 BTU/h): all electrical power consumed by a network
/// device ends up as heat.
pub fn watts_to_btu_per_hour(power: Quantity) -> Result<Quantity, QuantityError> {
    if power.unit() != Unit::Watts {
        return Err(QuantityError::UnitMismatch { left: power.unit(), right: Unit::Watts });
    }
    Ok(Quantity::new(power.value() * 3.412_142, Unit::BtuPerHour))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_same_unit() {
        let a = watts(50.0) + watts(20.0);
        assert_eq!(a, watts(70.0));
    }

    #[test]
    fn checked_add_rejects_unit_mismatch() {
        let err = watts(1.0).checked_add(gbps(1.0)).unwrap_err();
        assert!(matches!(err, QuantityError::UnitMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "quantity addition")]
    fn operator_add_panics_on_mismatch() {
        let _ = watts(1.0) + seconds(1.0);
    }

    #[test]
    fn scaling_preserves_unit() {
        let q = gbps(10.0) * 2.0;
        assert_eq!(q.unit(), Unit::BitsPerSecond);
        assert!((q.value() - 20e9).abs() < 1e-3);
    }

    #[test]
    fn ratio_of_like_quantities_is_dimensionless() {
        assert!((gbps(20.0).ratio_to(gbps(10.0)).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_rejects_mismatch_and_zero_division() {
        assert!(gbps(1.0).ratio_to(watts(1.0)).is_err());
        assert!(gbps(0.0).ratio_to(gbps(0.0)).is_err());
    }

    #[test]
    fn approx_eq_uses_relative_tolerance() {
        assert!(gbps(100.0).approx_eq(gbps(100.4), 0.005));
        assert!(!gbps(100.0).approx_eq(gbps(102.0), 0.005));
        assert!(!gbps(100.0).approx_eq(pps(100.0), 0.5));
        assert!(bps(0.0).approx_eq(bps(0.0), 0.0));
    }

    #[test]
    fn comparison_requires_same_unit() {
        use std::cmp::Ordering;
        assert_eq!(watts(50.0).partial_cmp_checked(watts(70.0)), Some(Ordering::Less));
        assert_eq!(watts(50.0).partial_cmp_checked(gbps(70.0)), None);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_values_rejected() {
        let _ = Quantity::new(f64::NAN, Unit::Watts);
    }

    #[test]
    fn heat_conversion() {
        let heat = watts_to_btu_per_hour(watts(100.0)).unwrap();
        assert_eq!(heat.unit(), Unit::BtuPerHour);
        assert!((heat.value() - 341.2142).abs() < 1e-3);
        assert!(watts_to_btu_per_hour(gbps(1.0)).is_err());
    }

    #[test]
    fn display_uses_si_prefixes() {
        assert_eq!(gbps(10.0).to_string(), "10.000 Gbit/s");
        assert_eq!(micros(5.0).to_string(), "5.000 us");
        assert_eq!(watts(50.0).to_string(), "50.000 W");
        assert_eq!(mpps(14.88).to_string(), "14.880 Mpkt/s");
    }

    #[test]
    fn display_small_and_zero() {
        assert_eq!(seconds(0.0).to_string(), "0.000 s");
        assert_eq!(nanos(3.0).to_string(), "3.000 ns");
    }
}
