//! Output checks applied to every op.
//!
//! An op passes when its deployment has the expected stages, every stage
//! conserves packets, every generated arrival entered the pipeline, the
//! arrivals are as many as the offered load makes (so a change to the
//! generator cannot shrink the work), its digest equals the pinned one
//! on the default and held-out seeds, and its measurement is
//! bit-identical to its traffic seed's first op.

use apples_simnet::system::Measurement;
use std::fmt::Write;

/// A canonical rendering of every field of a measurement, floats by
/// their bits: two measurements are bit-identical exactly when their
/// fingerprints are equal.
pub fn fingerprint(m: &Measurement) -> String {
    let mut s = format!("{}|{:?}", m.name, m.device_classes);
    for x in [m.throughput_bps, m.throughput_pps, m.mean_latency_ns, m.p99_latency_ns, m.loss_rate]
    {
        let _ = write!(s, "|{:016x}", x.to_bits());
    }
    let _ = write!(
        s,
        "|{:?}|{:016x}|{}|{}|{}|{}",
        m.jain_index.map(f64::to_bits),
        m.watts.to_bits(),
        m.policy_drops,
        m.fault_drops,
        m.injected_drops,
        m.corrupted
    );
    for st in &m.stages {
        let _ = write!(
            s,
            "|{}:{:016x}:{}:{}:{}:{}:{}:{}",
            st.name,
            st.utilization.to_bits(),
            st.arrivals,
            st.served,
            st.queue_drops,
            st.policy_drops,
            st.fault_drops,
            st.in_flight
        );
    }
    s
}

/// Short digest of a measurement, printed so two commits can be
/// compared exactly.
pub fn digest(m: &Measurement) -> String {
    apples_obs::fnv1a_hex(fingerprint(m).as_bytes())
}

/// Largest share by which an op's arrivals may miss the offered load's
/// mean. The window holds 20k to 330k Poisson arrivals, so this is 7 to
/// 29 standard deviations.
pub const ARRIVAL_TOLERANCE: f64 = 0.05;

/// What every op on one traffic seed must reproduce.
pub struct Expect {
    /// Stage names, in pipeline order.
    pub stages: &'static [&'static str],
    /// Arrivals the workload generates inside the window.
    pub stubs: u64,
    /// Arrivals the offered load makes on average inside the window.
    pub mean_arrivals: f64,
    /// The pinned digest, on the default and held-out seeds.
    pub pinned: Option<String>,
    /// Fingerprint of the first op on this traffic seed.
    pub reference: Option<String>,
}

/// Checks one op's measurement; the error says what broke.
pub fn check_op(m: &Measurement, expect: &Expect) -> Result<(), String> {
    let names: Vec<&str> = m.stages.iter().map(|s| s.name).collect();
    if names != expect.stages {
        return Err(format!("stages {names:?}, expected {:?}", expect.stages));
    }
    if let Some(bad) = m.stages.iter().find(|s| !s.conserves_packets()) {
        return Err(format!("stage {} does not conserve packets: {bad:?}", bad.name));
    }
    let entered = m.stages[0].arrivals + m.injected_drops;
    if entered != expect.stubs {
        return Err(format!("{entered} arrivals entered the pipeline, {} generated", expect.stubs));
    }
    let miss = (entered as f64 - expect.mean_arrivals).abs() / expect.mean_arrivals;
    if miss > ARRIVAL_TOLERANCE {
        return Err(format!(
            "{entered} arrivals, {:.0} expected from the offered load",
            expect.mean_arrivals
        ));
    }
    if let Some(pin) = &expect.pinned {
        let got = digest(m);
        if got != *pin {
            return Err(format!("digest {got}, pinned {pin}"));
        }
    }
    match &expect.reference {
        Some(r) if *r != fingerprint(m) => {
            Err("measurement differs from its traffic seed's first op".to_owned())
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apples_simnet::StageReport;

    fn stage(arrivals: u64, served: u64, queue_drops: u64, in_flight: u64) -> StageReport {
        StageReport {
            name: "host-cores",
            utilization: 0.5,
            arrivals,
            served,
            queue_drops,
            policy_drops: 0,
            fault_drops: 0,
            in_flight,
        }
    }

    fn measurement(stages: Vec<StageReport>) -> Measurement {
        Measurement {
            name: "hand-built".to_owned(),
            device_classes: Vec::new(),
            throughput_bps: 1e9,
            throughput_pps: 1e5,
            mean_latency_ns: 900.0,
            p99_latency_ns: 2000.0,
            loss_rate: 0.1,
            jain_index: Some(0.9),
            policy_drops: 0,
            fault_drops: 0,
            injected_drops: 0,
            corrupted: 0,
            watts: 50.0,
            stages,
        }
    }

    fn expect(stubs: u64) -> Expect {
        Expect {
            stages: &["host-cores"],
            stubs,
            mean_arrivals: stubs as f64,
            pinned: None,
            reference: None,
        }
    }

    #[test]
    fn a_conserving_measurement_passes() {
        let m = measurement(vec![stage(10, 6, 3, 1)]);
        assert_eq!(check_op(&m, &expect(10)), Ok(()));
    }

    #[test]
    fn a_measurement_that_loses_packets_is_a_failed_op() {
        let m = measurement(vec![stage(10, 5, 3, 1)]);
        let err = check_op(&m, &expect(10)).expect_err("one packet vanished");
        assert!(err.contains("conserve"), "{err}");
    }

    #[test]
    fn missing_arrivals_and_wrong_stages_fail() {
        let m = measurement(vec![stage(9, 6, 3, 0)]);
        assert!(check_op(&m, &expect(10)).is_err(), "the op skipped an arrival");
        let two = measurement(vec![stage(10, 6, 3, 1), stage(0, 0, 0, 0)]);
        assert!(check_op(&two, &expect(10)).is_err(), "unexpected second stage");
        let m = measurement(vec![stage(100, 60, 30, 10)]);
        let mut short = expect(100);
        short.mean_arrivals = 106.0;
        let err = check_op(&m, &short).expect_err("the generator made 6% too few");
        assert!(err.contains("offered load"), "{err}");
        short.mean_arrivals = 104.0;
        assert_eq!(check_op(&m, &short), Ok(()), "4% is within the tolerance");
    }

    #[test]
    fn any_bit_of_difference_from_the_first_op_or_the_pin_fails() {
        let first = measurement(vec![stage(10, 6, 3, 1)]);
        let mut e = expect(10);
        e.reference = Some(fingerprint(&first));
        assert_eq!(check_op(&first.clone(), &e), Ok(()));
        let mut off = first.clone();
        off.watts = f64::from_bits(first.watts.to_bits() + 1);
        assert!(check_op(&off, &e).is_err());
        assert_ne!(digest(&off), digest(&first));

        let pinned = Expect { pinned: Some(digest(&first)), ..expect(10) };
        assert_eq!(check_op(&first, &pinned), Ok(()));
        let err = check_op(&off, &pinned).expect_err("the first op itself differs from the pin");
        assert!(err.contains("pinned"), "{err}");
    }
}
