//! Absolute queueing oracles: one-stage pipelines whose mean sojourn
//! time has a closed form. The identity tests elsewhere compare the
//! engine with itself, so they cannot see a modelling error every
//! variant shares; these compare it with queueing theory.
//!
//! One `LineRate` stage fed Poisson arrivals of fixed-size packets is an
//! M/D/1 queue, and the same stage with exponential service is M/M/1.
//! Each case runs five seeds for 200 ms after a 20 ms warm-up and passes
//! when the t-based 95% CI of the per-seed mean sojourn covers the
//! analytic value. The analytic values use the rates the engine really
//! runs at: arrival gaps are whole nanoseconds (the exponential draw
//! truncated), and service times are rounded up to whole nanoseconds.
//! A miss is a modelling bug to report, not a tolerance to widen.

use apples::simnet::engine::{Engine, StageConfig};
use apples::simnet::nf::NfVerdict;
use apples::simnet::packet::Packet;
use apples::simnet::service::{LineRate, ServiceModel};
use apples::workload::{ArrivalProcess, FiveTuple, PacketSizeDist, WorkloadSpec};
use apples_rng::mix64;

const SIZE_BYTES: u32 = 1250;
const LINK_BPS: f64 = 10e9;
const WARMUP_NS: u64 = 20_000_000;
const DURATION_NS: u64 = WARMUP_NS + 200_000_000;
const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];
const LOADS: [f64; 3] = [0.3, 0.5, 0.7];
/// Two-sided 95% Student t quantile for 4 degrees of freedom (5 seeds).
const T_975_4: f64 = 2.776_445;

/// Exponential service with mean `mean_ns`, drawn per packet from
/// `mix64(seed ^ id)` and rounded up to a whole nanosecond.
struct ExpService {
    mean_ns: f64,
    seed: u64,
}

impl ExpService {
    /// The mean service time actually charged. ⌈X⌉ for X ~ Exp(mean)
    /// is geometric on 1, 2, … with P(⌈X⌉ ≥ k) = e^(−(k−1)/mean).
    fn effective_mean_ns(mean_ns: f64) -> f64 {
        1.0 / (1.0 - (-1.0 / mean_ns).exp())
    }
}

impl ServiceModel for ExpService {
    fn name(&self) -> &'static str {
        "exp"
    }

    fn serve(&mut self, pkt: &Packet) -> (NfVerdict, u64) {
        // 53 uniform bits in [0, 1).
        let u = (mix64(self.seed ^ pkt.id) >> 11) as f64 / (1u64 << 53) as f64;
        (NfVerdict::Forward, (-(1.0 - u).ln() * self.mean_ns).ceil() as u64)
    }
}

/// The fixed-size packet's service time on the link, as `LineRate`
/// charges it (rounded up).
fn line_rate_service_ns() -> f64 {
    let tuple = FiveTuple { src_ip: 1, dst_ip: 2, src_port: 3, dst_port: 4, proto: 6 };
    let pkt = Packet::new(0, 0, tuple, SIZE_BYTES, 0);
    LineRate::new("link", LINK_BPS).serve(&pkt).1 as f64
}

/// The arrival rate per ns the generator really produces when asked for
/// a mean gap of `mean_gap_ns`: the truncated draw ⌊X⌋ has mean
/// Σ_{k≥1} e^(−k/mean) = 1 / (e^(1/mean) − 1).
fn effective_arrival_rate(mean_gap_ns: f64) -> f64 {
    (1.0 / mean_gap_ns).exp() - 1.0
}

/// Per-seed mean sojourn (arrival to delivery, ns) of one stage with
/// an unbounded queue, fed Poisson arrivals with mean gap `mean_gap_ns`.
fn mean_sojourns(mean_gap_ns: f64, service: impl Fn(u64) -> Box<dyn ServiceModel>) -> Vec<f64> {
    SEEDS
        .iter()
        .map(|&seed| {
            let spec = WorkloadSpec {
                sizes: PacketSizeDist::Fixed(SIZE_BYTES),
                arrivals: ArrivalProcess::Poisson { rate_pps: 1e9 / mean_gap_ns },
                flows: 1,
                zipf_s: 0.0,
                seed,
            };
            let stage = StageConfig::new("queue", 1, usize::MAX, service(seed));
            let r = Engine::new(vec![stage]).run(&spec, DURATION_NS, WARMUP_NS);
            assert_eq!(r.sink.queue_drops(), 0, "seed {seed}: an unbounded queue dropped");
            r.sink.latency().mean_ns()
        })
        .collect()
}

/// Asserts that the t-based 95% CI of the per-seed means covers `want`.
fn assert_ci_covers(case: &str, samples: &[f64], want: f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let half = T_975_4 * (var / n).sqrt();
    assert!(
        (mean - want).abs() <= half,
        "{case}: mean sojourn {mean:.1} ± {half:.1} ns (95% CI) misses the analytic {want:.1} ns \
         ({:+.2}%); per seed {samples:?}",
        (mean / want - 1.0) * 100.0,
    );
}

/// M/D/1: the Pollaczek–Khinchine mean sojourn S + λS² / (2(1 − ρ)).
#[test]
fn md1_mean_sojourn_matches_pollaczek_khinchine() {
    let s = line_rate_service_ns();
    for rho in LOADS {
        let mean_gap_ns = s / rho;
        let lambda = effective_arrival_rate(mean_gap_ns);
        let rho_eff = lambda * s;
        let want = s + lambda * s * s / (2.0 * (1.0 - rho_eff));
        let got = mean_sojourns(mean_gap_ns, |_| Box::new(LineRate::new("link", LINK_BPS)));
        assert_ci_covers(&format!("M/D/1 at rho {rho}"), &got, want);
    }
}

/// M/M/1: the mean sojourn S / (1 − ρ).
#[test]
fn mm1_mean_sojourn_matches_s_over_one_minus_rho() {
    let mean_ns = line_rate_service_ns();
    let s = ExpService::effective_mean_ns(mean_ns);
    for rho in LOADS {
        let mean_gap_ns = s / rho;
        let rho_eff = effective_arrival_rate(mean_gap_ns) * s;
        let want = s / (1.0 - rho_eff);
        // The run seed is mixed first: `seed ^ id` alone would only
        // permute the ids of seeds 1–5, so all five would draw the same
        // service times.
        let got =
            mean_sojourns(mean_gap_ns, |seed| Box::new(ExpService { mean_ns, seed: mix64(seed) }));
        assert_ci_covers(&format!("M/M/1 at rho {rho}"), &got, want);
    }
}
