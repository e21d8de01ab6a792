//! §3.1's TCO proposal in practice: TCO is context-dependent, so release
//! the *pricing model* with the paper. Anyone holding the model computes
//! the same dollars for the same deployment — and can re-price their own
//! systems under it for an apples-to-apples dollar comparison.
//!
//! ```sh
//! cargo run --example tco_release
//! ```

use apples::metrics::pricing::{BomItem, PricingModel};
use apples::metrics::quantity::watts_to_btu_per_hour;
use apples::prelude::*;
use apples_bench::scenarios::{
    firewall_chain, full_chain, measure, saturating_workload, stateful_tail_chain,
};

fn main() {
    // Two deployments measured on one workload, each priced from an
    // explicit bill of materials.
    let wl = saturating_workload(1);
    let systems = [
        (
            Deployment::cpu_host("baseline", 2, full_chain),
            vec![BomItem::new("xeon-server-16c", 1), BomItem::new("dumb-nic-100g", 1)],
        ),
        (
            Deployment::smartnic_offload("accelerated", 4, firewall_chain, 1, stateful_tail_chain),
            vec![BomItem::new("xeon-server-16c", 1), BomItem::new("smartnic-100g", 1)],
        ),
    ];
    let measured: Vec<Measurement> = systems.iter().map(|(d, _)| measure(d, &wl)).collect();

    // Context-independent costs first (what the paper asks papers to
    // report), each summed over the devices the deployment lists.
    for ((d, _), m) in systems.iter().zip(&measured) {
        let heat = watts_to_btu_per_hour(watts(m.watts)).expect("watts convert to BTU/h");
        println!(
            "{:<12} power={:6.1} W  heat={:7.1} BTU/h  rack={:.1} RU",
            m.name,
            m.watts,
            heat.value(),
            d.rack_units()
        );
    }

    // A core count is a fair cost only if it covers every device of
    // both systems (principle 3); the validator names what it misses.
    let cores = CostMetric::cpu_cores();
    let classes: Vec<(&str, &[DeviceClass])> =
        measured.iter().map(|m| (m.name.as_str(), m.device_classes.as_slice())).collect();
    let violations = validate_cost_metric(&cores, &classes);
    if violations.is_empty() {
        println!("\n'{}' is a fair cost metric for both systems", cores.name());
    } else {
        println!("\n'{}' is not reported:", cores.name());
        for v in &violations {
            println!("  {v}");
        }
    }

    // The released pricing models.
    let campus = PricingModel::campus_testbed_2023();
    let hyperscaler = PricingModel::hyperscaler_2023();
    println!("\nyearly TCO under each released model:");
    println!("{:<12} {:>20} {:>20}", "system", campus.name.as_str(), hyperscaler.name.as_str());
    for ((_, bom), m) in systems.iter().zip(&measured) {
        let tc = campus.yearly_tco(bom, watts(m.watts)).expect("priced");
        let th = hyperscaler.yearly_tco(bom, watts(m.watts)).expect("priced");
        println!("{:<12} {:>20} {:>20}", m.name, tc.to_string(), th.to_string());
    }

    println!(
        "\nsame deployments, different models, different dollars — that is context\n\
         dependence. Within one released model the ranking is reproducible by anyone."
    );

    // A consumer with their own part can extend the model and stay
    // comparable.
    let mut extended = campus.clone();
    extended.price_list.insert("fpga-nic-200g".to_owned(), 9_500.0);
    let custom = extended
        .yearly_tco(
            &[BomItem::new("fpga-nic-200g", 1), BomItem::new("xeon-server-16c", 1)],
            watts(120.0),
        )
        .expect("priced");
    println!("\na third party pricing their FPGA system under the released model: {custom}/yr");
}
