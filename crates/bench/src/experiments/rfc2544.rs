//! Extension experiment: the RFC 2544 frame-size sweep, with cost.
//!
//! §2: "when evaluating network functions it is common to report both
//! packets per second when using minimum sized packets and data rates
//! when using a mixture of packets" — the community's RFC 2544 habit.
//! This experiment runs the standard seven frame sizes through the
//! baseline and the SmartNIC system and reports pps, Gbps, *and watts*
//! per size: the sweep the paper says evaluations should have been
//! printing all along.

use crate::pool::Pool;
use crate::report::ExperimentReport;
use crate::scenarios::{baseline_host, smartnic_system, to_gbps};
use apples_core::report::Csv;
use apples_workload::sizes::RFC2544_SIZES;
use apples_workload::{ArrivalProcess, PacketSizeDist, WorkloadSpec};

const RUN_NS: u64 = 10_000_000;
const WARMUP_NS: u64 = 1_000_000;

/// Runs the experiment, fanning the size grid out on `pool`.
pub fn run(pool: Pool) -> ExperimentReport {
    let mut r = ExperimentReport::new(
        "rfc2544",
        "extension: RFC 2544 frame-size sweep with end-to-end power",
    );
    r.paper_line("\u{a7}2: report pps at minimum frame size and data rates across the size sweep — here with the cost column the paper adds");

    let mut csv = Csv::new(["frame_bytes", "system", "mpps", "gbps", "watts", "mpps_per_watt"]);
    let mut min_size_summary = Vec::new();

    // 7 sizes x 2 systems = 14 independent simulations: run the whole
    // grid on the pool, then emit rows in sweep order.
    let grid: Vec<(u32, bool)> =
        RFC2544_SIZES.iter().flat_map(|&s| [(s, true), (s, false)]).collect();
    let measurements = pool.map(grid, |(size, is_baseline)| {
        // Saturating offered load for every size: 64 B needs the pps.
        let rate_pps = 120e9 / (f64::from(size + 20) * 8.0);
        let wl = WorkloadSpec {
            sizes: PacketSizeDist::Fixed(size),
            arrivals: ArrivalProcess::Cbr { rate_pps },
            flows: 64,
            zipf_s: 1.0,
            seed: 51,
        };
        let d = if is_baseline { baseline_host(1) } else { smartnic_system() };
        (size, d.run(&wl, RUN_NS, WARMUP_NS))
    });
    {
        for (size, m) in measurements {
            let mpps = m.throughput_pps / 1e6;
            csv.row([
                size.to_string(),
                m.name.clone(),
                format!("{mpps:.4}"),
                format!("{:.4}", to_gbps(m.throughput_bps)),
                format!("{:.2}", m.watts),
                format!("{:.5}", mpps / m.watts),
            ]);
            if size == 64 {
                min_size_summary.push(format!(
                    "{}: {:.3} Mpps at {:.1} W ({:.4} Mpps/W)",
                    m.name,
                    mpps,
                    m.watts,
                    mpps / m.watts
                ));
            }
        }
    }

    r.measured_line("64 B (minimum frame) packet rates:".to_owned());
    for line in min_size_summary {
        r.measured_line(format!("  {line}"));
    }
    r.measured_line(
        "per-packet work dominates software forwarding, so small frames crush the host's \
         pps while the accelerated datapath holds its rate — the classic RFC 2544 shape, \
         now with the watts column that makes the comparison fair"
            .to_owned(),
    );
    r.table("rfc2544-sweep", csv);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_seven_sizes_for_both_systems() {
        let r = run(Pool::new());
        let (_, csv) = &r.tables[0];
        assert_eq!(csv.len(), 7 * 2);
    }

    #[test]
    fn minimum_frame_rates_are_reported() {
        let text = run(Pool::new()).render();
        assert!(text.contains("64 B (minimum frame)"), "{text}");
        assert!(text.contains("Mpps/W"), "{text}");
    }
}
