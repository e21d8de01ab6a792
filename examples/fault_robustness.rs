//! Fault robustness: re-judge a worked-example comparison while the
//! environment degrades identically for both contenders, and show the
//! replay contract — a faulted run is a pure function of
//! `(seed, FaultSpec)`, so every number below reproduces bit-for-bit.
//!
//! ```sh
//! cargo run --release --example fault_robustness
//! ```

use apples::prelude::*;
use apples_bench::scenarios::{
    baseline_host, faulted, measure, perturbed_workload, smartnic_system, to_gbps, SEVERITY_LADDER,
};

fn main() {
    println!("severity   system      Gbps    watts  fault-drops  verdict");
    for (name, severity) in SEVERITY_LADDER {
        // Same fault severity, same perturbed workload, for both
        // systems: the degraded environment stays a controlled variable.
        let wl = perturbed_workload(120.0, 42, severity);
        let base = measure(&faulted(baseline_host(2), severity), &wl);
        let nic = measure(&faulted(smartnic_system(), severity), &wl);
        let verdict = Evaluation::new(nic.as_system(), base.as_system())
            .with_baseline_scaling(&IdealLinear)
            .run()
            .verdict;
        for m in [&base, &nic] {
            println!(
                "{:<10} {:<10} {:>6.2} {:>8.1} {:>12} ",
                name,
                m.name,
                to_gbps(m.throughput_bps),
                m.watts,
                m.fault_drops + m.injected_drops,
            );
        }
        println!(
            "{:<10} -> smartnic {}",
            "",
            if verdict.favors_proposed() { "still defensibly superior" } else { "no longer wins" }
        );

        // The replay contract: rebuild everything from scratch and the
        // faulted measurement reproduces exactly.
        let replay = measure(&faulted(smartnic_system(), severity), &wl);
        assert_eq!(replay.fingerprint(), nic.fingerprint());
    }
    println!();
    println!("every faulted run above replayed bit-for-bit from (seed, FaultSpec):");
    println!("robustness results are as reproducible as the clean comparisons they stress.");
}
