//! End-to-end §4.2: simulate a firewall on a host, on a SmartNIC-
//! accelerated host, and on a multi-core host; then let the methodology
//! decide what may be claimed.
//!
//! ```sh
//! cargo run --release --example smartnic_firewall
//! ```

use apples::prelude::*;
use apples_bench::scenarios::{
    baseline_host, measure, saturating_workload, smartnic_system, to_gbps,
};

fn main() {
    // A saturating MTU workload: every deployment reports its ceiling.
    let wl = saturating_workload(1);

    // Baseline at 1..4 cores (Principle 5: measure the scaling curve).
    println!("measuring the baseline's core-scaling curve:");
    let mut curve_samples = Vec::new();
    let mut base1: Option<Measurement> = None;
    for cores in [1u32, 2, 3, 4] {
        let m = measure(&baseline_host(cores), &wl);
        println!("  {} : {:6.2} Gbps at {:5.1} W", m.name, to_gbps(m.throughput_bps), m.watts);
        if let Some(b) = &base1 {
            curve_samples.push((
                f64::from(cores),
                m.throughput_bps / b.throughput_bps,
                m.watts / b.watts,
            ));
        } else {
            curve_samples.push((1.0, 1.0, 1.0));
            base1 = Some(m);
        }
    }
    let base1 = base1.expect("measured");
    let curve = MeasuredCurve::from_samples(curve_samples);

    // The proposed system: the ACL on SmartNIC cores, the stateful tail
    // (NAT + flow monitor) on one host core.
    let nic = measure(&smartnic_system(), &wl);
    println!(
        "proposed {} : {:6.2} Gbps at {:5.1} W\n",
        nic.name,
        to_gbps(nic.throughput_bps),
        nic.watts
    );

    // The fair comparison, with the measured scaling model.
    let result =
        Evaluation::new(nic.as_system(), base1.as_system()).with_baseline_scaling(&curve).run();
    println!("{}", render_text(&result));
}
