//! Released pricing models: the §3.1 context-independent stand-in for TCO.
//!
//! TCO is "the cost metric that companies care most about" but is
//! context-dependent (purchase discounts, energy prices, land costs vary
//! by organization, location, and time). §3.1's proposed fix is to
//! *release the pricing model* used to compute the TCO so that anyone can
//! recompute it for their own context — and recompute other systems' TCO
//! under the *same* model, restoring comparability.
//!
//! [`PricingModel`] is that released artifact: a price list, an energy
//! tariff, facility overheads, and an amortization horizon. Given a bill
//! of materials and a steady-state power draw it produces a reproducible
//! dollar figure. Two evaluators sharing a `PricingModel` will compute
//! identical TCOs for identical deployments, which is exactly the
//! paper's definition of context-independence.

use crate::quantity::{dollars, watts, Quantity};
use crate::unit::Unit;
use std::collections::BTreeMap;
use std::fmt;

/// A line item in a system's bill of materials.
#[derive(Debug, Clone, PartialEq)]
pub struct BomItem {
    /// Part identifier; must exist in the model's price list.
    pub part: String,
    /// Number of units of the part.
    pub quantity: u32,
}

impl BomItem {
    /// Convenience constructor.
    pub fn new(part: impl Into<String>, quantity: u32) -> Self {
        BomItem { part: part.into(), quantity }
    }
}

/// A released pricing model (§3.1).
///
/// All parameters are explicit so the model can be published verbatim;
/// the struct is plain data, easy to emit as CSV/JSON for that purpose.
///
/// # Examples
///
/// ```
/// use apples_metrics::pricing::{BomItem, PricingModel};
/// use apples_metrics::quantity::watts;
///
/// let model = PricingModel::campus_testbed_2023();
/// let bom = [BomItem::new("xeon-server-16c", 1), BomItem::new("smartnic-100g", 1)];
/// let tco = model.yearly_tco(&bom, watts(75.0)).unwrap();
/// // Anyone holding the same released model computes the same dollars.
/// assert_eq!(tco, PricingModel::campus_testbed_2023().yearly_tco(&bom, watts(75.0)).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PricingModel {
    /// Human-readable model name, e.g. `"campus-testbed-2023"`.
    pub name: String,
    /// Unit purchase price per part, in dollars.
    pub price_list: BTreeMap<String, f64>,
    /// Energy tariff in dollars per kWh.
    pub dollars_per_kwh: f64,
    /// Facility overhead (space, cooling, administration) in dollars per
    /// watt of provisioned power per year.
    pub facility_dollars_per_watt_year: f64,
    /// Power usage effectiveness (total facility power / IT power), ≥ 1.
    pub pue: f64,
    /// Hardware amortization horizon in years.
    pub amortization_years: f64,
}

/// Error computing a TCO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PricingError {
    /// A bill-of-materials part is missing from the price list.
    UnknownPart(String),
    /// The power quantity was not in watts.
    NotPower(Unit),
}

impl fmt::Display for PricingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PricingError::UnknownPart(p) => write!(f, "part '{p}' is not in the price list"),
            PricingError::NotPower(u) => write!(f, "expected a power in watts, got {u}"),
        }
    }
}

impl std::error::Error for PricingError {}

impl PricingModel {
    /// A representative published model for a university testbed.
    ///
    /// The constants are synthetic but in realistic ranges (2023 US
    /// retail prices, $0.12/kWh, PUE 1.5, 4-year amortization). Being a
    /// *released* model, the exact values matter less than the fact that
    /// everyone computing against it gets the same answer.
    pub fn campus_testbed_2023() -> Self {
        let mut price_list = BTreeMap::new();
        price_list.insert("xeon-server-16c".to_owned(), 6_500.0);
        price_list.insert("xeon-core".to_owned(), 406.25); // per-core slice of the above
        price_list.insert("dumb-nic-100g".to_owned(), 450.0);
        price_list.insert("smartnic-100g".to_owned(), 2_200.0);
        price_list.insert("fpga-nic-100g".to_owned(), 5_800.0);
        price_list.insert("tofino-switch-32x100g".to_owned(), 18_000.0);
        price_list.insert("gpu-t4".to_owned(), 2_400.0);
        price_list.insert("dram-16gb".to_owned(), 55.0);
        PricingModel {
            name: "campus-testbed-2023".to_owned(),
            price_list,
            dollars_per_kwh: 0.12,
            facility_dollars_per_watt_year: 2.0,
            pue: 1.5,
            amortization_years: 4.0,
        }
    }

    /// A second released model with hyperscaler-style bulk pricing, used
    /// in tests and experiments to demonstrate *why* raw TCO is
    /// context-dependent: the same deployment costs different amounts
    /// under different (equally valid) models.
    pub fn hyperscaler_2023() -> Self {
        let mut m = PricingModel::campus_testbed_2023();
        m.name = "hyperscaler-2023".to_owned();
        for price in m.price_list.values_mut() {
            *price *= 0.55; // bulk discount
        }
        m.dollars_per_kwh = 0.05; // wholesale energy
        m.facility_dollars_per_watt_year = 1.1;
        m.pue = 1.1;
        m.amortization_years = 3.0;
        m
    }

    /// Capital expense of a bill of materials under this model.
    pub fn capex(&self, bom: &[BomItem]) -> Result<Quantity, PricingError> {
        let mut total = 0.0;
        for item in bom {
            let unit_price = self
                .price_list
                .get(&item.part)
                .ok_or_else(|| PricingError::UnknownPart(item.part.clone()))?;
            total += unit_price * f64::from(item.quantity);
        }
        Ok(dollars(total))
    }

    /// Yearly operational expense for a steady-state IT power draw.
    pub fn yearly_opex(&self, power: Quantity) -> Result<Quantity, PricingError> {
        if power.unit() != Unit::Watts {
            return Err(PricingError::NotPower(power.unit()));
        }
        let it_watts = power.value();
        let facility_watts = it_watts * self.pue;
        let kwh_per_year = facility_watts * 24.0 * 365.0 / 1000.0;
        let energy = kwh_per_year * self.dollars_per_kwh;
        let facility = it_watts * self.facility_dollars_per_watt_year;
        Ok(dollars(energy + facility))
    }

    /// Amortized yearly TCO = capex / amortization + yearly opex.
    pub fn yearly_tco(&self, bom: &[BomItem], power: Quantity) -> Result<Quantity, PricingError> {
        let capex = self.capex(bom)?;
        let opex = self.yearly_opex(power)?;
        Ok(dollars(capex.value() / self.amortization_years + opex.value()))
    }

    /// Demonstration helper: the zero-power, empty-BOM TCO is zero under
    /// every model (sanity anchor for property tests).
    #[expect(
        clippy::expect_used,
        reason = "invariant: the empty BOM at zero watts has no failing component; exercised by the pricing property tests"
    )]
    pub fn zero(&self) -> Quantity {
        self.yearly_tco(&[], watts(0.0)).expect("zero TCO is computable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantity::gbps;

    fn server_bom() -> Vec<BomItem> {
        vec![BomItem::new("xeon-server-16c", 1), BomItem::new("dumb-nic-100g", 1)]
    }

    #[test]
    fn capex_sums_price_list_entries() {
        let m = PricingModel::campus_testbed_2023();
        let c = m.capex(&server_bom()).unwrap();
        assert!((c.value() - 6_950.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_part_is_an_error() {
        let m = PricingModel::campus_testbed_2023();
        let err = m.capex(&[BomItem::new("quantum-nic", 1)]).unwrap_err();
        assert_eq!(err, PricingError::UnknownPart("quantum-nic".to_owned()));
    }

    #[test]
    fn opex_accounts_for_pue_and_facility() {
        let m = PricingModel::campus_testbed_2023();
        let o = m.yearly_opex(watts(100.0)).unwrap();
        // 100 W * 1.5 PUE = 150 W -> 1314 kWh/yr * 0.12 = 157.68
        // facility: 100 W * 2.0 = 200. total = 357.68
        assert!((o.value() - 357.68).abs() < 0.01, "got {}", o.value());
    }

    #[test]
    fn opex_rejects_non_power() {
        let m = PricingModel::campus_testbed_2023();
        assert!(matches!(m.yearly_opex(gbps(1.0)), Err(PricingError::NotPower(_))));
    }

    #[test]
    fn tco_is_capex_amortized_plus_opex() {
        let m = PricingModel::campus_testbed_2023();
        let tco = m.yearly_tco(&server_bom(), watts(100.0)).unwrap();
        let expected = 6_950.0 / 4.0 + 357.68;
        assert!((tco.value() - expected).abs() < 0.01);
    }

    #[test]
    fn same_deployment_same_model_same_tco() {
        // The §3.1 point: with a released model, TCO is reproducible.
        let a = PricingModel::campus_testbed_2023();
        let b = PricingModel::campus_testbed_2023();
        let ta = a.yearly_tco(&server_bom(), watts(120.0)).unwrap();
        let tb = b.yearly_tco(&server_bom(), watts(120.0)).unwrap();
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_models_disagree_demonstrating_context_dependence() {
        let campus = PricingModel::campus_testbed_2023();
        let hyper = PricingModel::hyperscaler_2023();
        let tc = campus.yearly_tco(&server_bom(), watts(120.0)).unwrap();
        let th = hyper.yearly_tco(&server_bom(), watts(120.0)).unwrap();
        assert!(th.value() < tc.value(), "bulk pricing should be cheaper");
    }

    #[test]
    fn zero_anchor() {
        assert_eq!(PricingModel::campus_testbed_2023().zero().value(), 0.0);
        assert_eq!(PricingModel::hyperscaler_2023().zero().value(), 0.0);
    }
}
