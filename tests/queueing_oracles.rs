//! Absolute queueing oracles: one-stage pipelines whose mean sojourn
//! time has a closed form. The identity tests elsewhere compare the
//! engine with itself, so they cannot see a modelling error every
//! variant shares; these compare it with queueing theory.
//!
//! One `LineRate` stage fed Poisson arrivals of fixed-size packets is an
//! M/D/1 queue, and the same stage with exponential service is M/M/1.
//! With `c` servers it is M/M/c, and with one server and room for
//! `K − 1` queued packets it is M/M/1/K.
//! Each case runs five seeds for 200 ms after a 20 ms warm-up and passes
//! when the t-based 95% CI of the per-seed statistic (the mean sojourn,
//! or the share of arrivals dropped) covers the analytic value. The
//! analytic values use the rates the engine really runs at: arrival
//! gaps are whole nanoseconds (the exponential draw truncated), and
//! service times are rounded up to whole nanoseconds.
//! A miss is a modelling bug to report, not a tolerance to widen.

use apples::simnet::engine::{Engine, RunResult, StageConfig};
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

/// Poisson arrivals of fixed-size packets with mean gap `mean_gap_ns`.
fn poisson(mean_gap_ns: f64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        sizes: PacketSizeDist::Fixed(SIZE_BYTES),
        arrivals: ArrivalProcess::Poisson { rate_pps: 1e9 / mean_gap_ns },
        flows: 1,
        zipf_s: 0.0,
        seed,
    }
}

/// Runs one stage of `servers` servers with room for `capacity` queued
/// packets, fed Poisson arrivals with mean gap `mean_gap_ns`, once per
/// seed, and maps each run to `stat(seed, result)`.
fn per_seed(
    mean_gap_ns: f64,
    servers: u32,
    capacity: usize,
    service: impl Fn(u64) -> Box<dyn ServiceModel>,
    stat: impl Fn(u64, RunResult) -> f64,
) -> Vec<f64> {
    SEEDS
        .iter()
        .map(|&seed| {
            let stage = StageConfig::new("queue", servers, capacity, service(seed));
            let r =
                Engine::new(vec![stage]).run(&poisson(mean_gap_ns, seed), DURATION_NS, WARMUP_NS);
            stat(seed, r)
        })
        .collect()
}

/// Per-seed mean sojourn (arrival to delivery, ns) of one stage with
/// `servers` servers and an unbounded queue.
fn mean_sojourns(
    mean_gap_ns: f64,
    servers: u32,
    service: impl Fn(u64) -> Box<dyn ServiceModel>,
) -> Vec<f64> {
    per_seed(mean_gap_ns, servers, usize::MAX, service, |seed, r| {
        assert_eq!(r.sink.queue_drops(), 0, "seed {seed}: an unbounded queue dropped");
        r.sink.latency().mean()
    })
}

/// Exponential service with mean `mean_ns`. The run seed is mixed
/// first: `seed ^ id` alone would only permute the ids of seeds 1–5, so
/// all five would draw the same service times.
fn exp_service(mean_ns: f64) -> impl Fn(u64) -> Box<dyn ServiceModel> {
    move |seed| Box::new(ExpService { mean_ns, seed: mix64(seed) })
}

/// Asserts that the t-based 95% CI of the per-seed values covers `want`.
fn assert_ci_covers(case: &str, samples: &[f64], want: f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let half = T_975_4 * (var / n).sqrt();
    assert!(
        (mean - want).abs() <= half,
        "{case}: mean {mean:.6} ± {half:.6} (95% CI) misses the analytic {want:.6} \
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
        let got = mean_sojourns(mean_gap_ns, 1, |_| Box::new(LineRate::new("link", LINK_BPS)));
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
        let got = mean_sojourns(mean_gap_ns, 1, exp_service(mean_ns));
        assert_ci_covers(&format!("M/M/1 at rho {rho}"), &got, want);
    }
}

/// Erlang C: the probability that an arrival to an M/M/c queue with
/// offered load `a` (in servers) waits, from the Erlang B recursion.
fn erlang_c(c: u32, a: f64) -> f64 {
    let mut b = 1.0;
    for k in 1..=c {
        b = a * b / (f64::from(k) + a * b);
    }
    let c = f64::from(c);
    c * b / (c - a * (1.0 - b))
}

/// M/M/c: the mean sojourn S + C(c, a)·S / (c − a), where a = λS is
/// the offered load and C(c, a) Erlang's probability of waiting.
#[test]
fn mmc_mean_sojourn_matches_erlang_c() {
    for c in [2, 4] {
        // Each server is c times slower than the link, so the arrival
        // rate, and with it the run's cost, matches the M/M/1 case.
        let mean_ns = f64::from(c) * line_rate_service_ns();
        let s = ExpService::effective_mean_ns(mean_ns);
        for rho in LOADS {
            let mean_gap_ns = s / (rho * f64::from(c));
            let a = effective_arrival_rate(mean_gap_ns) * s;
            let want = s + erlang_c(c, a) * s / (f64::from(c) - a);
            let got = mean_sojourns(mean_gap_ns, c, exp_service(mean_ns));
            assert_ci_covers(&format!("M/M/{c} at rho {rho}"), &got, want);
        }
    }
}

/// M/M/1/K: one server and room for K − 1 queued packets. Poisson
/// arrivals see the time average (PASTA), so the share of arrivals
/// dropped is the probability that K packets are in the system,
/// (1 − ρ)ρ^K / (1 − ρ^(K+1)). Drops count from the warm-up on, so the
/// share is taken over the arrivals from the warm-up on.
#[test]
fn mm1k_drop_share_matches_blocking_probability() {
    const QUEUE: usize = 4;
    let k = QUEUE as i32 + 1;
    let mean_ns = line_rate_service_ns();
    let s = ExpService::effective_mean_ns(mean_ns);
    for rho in [0.5, 0.9, 1.2] {
        let mean_gap_ns = s / rho;
        let rho_eff = effective_arrival_rate(mean_gap_ns) * s;
        let want = (1.0 - rho_eff) * rho_eff.powi(k) / (1.0 - rho_eff.powi(k + 1));
        let got = per_seed(mean_gap_ns, 1, QUEUE, exp_service(mean_ns), |seed, r| {
            let arrivals = poisson(mean_gap_ns, seed)
                .stream()
                .take_while(|p| p.t_ns < DURATION_NS)
                .filter(|p| p.t_ns >= WARMUP_NS)
                .count();
            r.sink.queue_drops() as f64 / arrivals as f64
        });
        assert_ci_covers(&format!("M/M/1/{k} at rho {rho}"), &got, want);
    }
}
