//! The three workloads, each taken from one of the heaviest experiments
//! of a serial cold suite (ips 1.18 s, multihost 0.80 s, telemetry
//! 0.38 s, robustness-frontier 0.37 s).
//!
//! The offered load and the simulated window are fixed here, so no
//! program change can shrink the work one op does; only the seed is an
//! argument. The deployments come from the program's own public
//! constructors. Each workload also names the NF chain every stage runs,
//! so the traced run can time that layer from outside.

use apples_bench::scenarios::{
    firewall_chain, full_chain, host_ips, ips_chain, smartnic_system, stateful_tail_chain,
    CONTENTION_ALPHA,
};
use apples_simnet::fault::FaultSpec;
use apples_simnet::nf::NfChain;
use apples_simnet::system::Deployment;
use apples_workload::{ArrivalProcess, PacketSizeDist, WorkloadSpec};

/// Builds a fresh NF chain, as a deployment's stage factory does.
pub type ChainFactory = fn() -> NfChain;

/// Bytes one 1500 B frame takes on the wire, preamble and gap included.
const WIRE_BYTES: f64 = 1520.0;

/// A seed whose op output is pinned: the digest every op on it must
/// print, taken from the program this benchmark was defined on.
pub struct Pin {
    /// The workload seed.
    pub seed: u64,
    /// The digest of the measurement (see `check::digest`).
    pub digest: &'static str,
}

/// One benchmark workload: a deployment, its traffic, and its window.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The experiment the deployment and traffic come from.
    pub source: &'static str,
    /// The seed the source experiment uses.
    pub default: Pin,
    /// A second seed, never used while tuning, on which a later claim
    /// must also hold.
    pub held_out: Pin,
    /// Offered load, Gbps of 1500 B frames on the wire, as Poisson
    /// arrivals.
    pub gbps: f64,
    /// Zipf(1.0) flows the arrivals are spread over.
    pub flows: usize,
    /// `(surge, on_ns, period_ns)`: periodic overload windows in which
    /// the arrival rate is `surge` times the offered load.
    pub bursts: Option<(f64, u64, u64)>,
    /// Simulated run length, ns.
    pub run_ns: u64,
    /// Simulated warm-up excluded from the measurement, ns.
    pub warmup_ns: u64,
    /// The deployment, built through the program's constructors.
    pub build: fn() -> Deployment,
    /// Stage names the deployment must report, in pipeline order.
    pub stages: &'static [&'static str],
    /// `(stage, chain factory)` for every stage that runs an NF chain.
    pub chains: &'static [(usize, ChainFactory)],
    /// Attack probability of synthesized payloads, when the deployment
    /// synthesizes them (with the IPS signatures as needles).
    pub attack_prob: Option<f64>,
}

impl Workload {
    /// The traffic for a seed, built through the workload crate.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        let spec = WorkloadSpec {
            sizes: PacketSizeDist::Fixed(1500),
            arrivals: ArrivalProcess::Poisson { rate_pps: self.gbps * 1e9 / (WIRE_BYTES * 8.0) },
            flows: self.flows,
            zipf_s: 1.0,
            seed,
        };
        match self.bursts {
            Some((surge, on_ns, period_ns)) => spec.with_overload_bursts(surge, on_ns, period_ns),
            None => spec,
        }
    }

    /// Arrivals the window should hold on average, worked out from the
    /// offered load alone rather than from the program's generator.
    pub fn mean_arrivals(&self) -> f64 {
        let duty = self.bursts.map_or(1.0, |(surge, on_ns, period_ns)| {
            1.0 + (surge - 1.0) * on_ns as f64 / period_ns as f64
        });
        self.gbps * 1e9 / (WIRE_BYTES * 8.0) * duty * self.run_ns as f64 / 1e9
    }

    /// The pinned digest for `seed`, if it is the default or held-out
    /// seed.
    pub fn pinned(&self, seed: u64) -> Option<&'static str> {
        [&self.default, &self.held_out].into_iter().find(|p| p.seed == seed).map(|p| p.digest)
    }
}

fn cluster() -> Deployment {
    Deployment::replicated_cluster("cluster-4", 4, 2, CONTENTION_ALPHA, full_chain)
}

fn ips() -> Deployment {
    host_ips(1)
}

fn faults() -> Deployment {
    smartnic_system().with_faults(FaultSpec::at_severity(1.0))
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    // Five stages and steered hops: the engine's own dispatch and
    // scheduling are the largest share of an op.
    Workload {
        name: "sim-cluster",
        source: "multihost",
        default: Pin { seed: 71, digest: "7070a86d7d920110" },
        held_out: Pin { seed: 1071, digest: "a1e98a8db3e27eed" },
        gbps: 200.0,
        flows: 512,
        bursts: None,
        run_ns: 20_000_000,
        warmup_ns: 2_000_000,
        build: cluster,
        stages: &["ecmp-splitter", "host", "host", "host", "host"],
        chains: &[(1, full_chain), (2, full_chain), (3, full_chain), (4, full_chain)],
        attack_prob: None,
    },
    // Payload synthesis and DPI dominate and the engine does little: a
    // change to the event path should not move it.
    Workload {
        name: "sim-ips",
        source: "ips",
        default: Pin { seed: 17, digest: "ef30790ad265ebb4" },
        held_out: Pin { seed: 1017, digest: "db19e5ef17aaf923" },
        gbps: 30.0,
        flows: 64,
        bursts: None,
        run_ns: 8_000_000,
        warmup_ns: 1_000_000,
        build: ips,
        stages: &["host-cores"],
        chains: &[(0, ips_chain)],
        attack_prob: Some(0.01),
    },
    // The only workload with the fault layer armed; arrival generation
    // and the engine each take about a third of an op. The deployment
    // and window are robustness-frontier's at the severe rung; the 3x
    // surges of 0.5 ms every 5 ms are the perturbation
    // robustness-verdict and telemetry add to the traffic.
    Workload {
        name: "sim-faults",
        source: "robustness, severe rung",
        default: Pin { seed: 1, digest: "50db105473348a29" },
        held_out: Pin { seed: 1001, digest: "dbeb90e090b19429" },
        gbps: 120.0,
        flows: 256,
        bursts: Some((3.0, 500_000, 5_000_000)),
        run_ns: 20_000_000,
        warmup_ns: 2_000_000,
        build: faults,
        stages: &["smartnic-cores", "host-cores"],
        chains: &[(0, firewall_chain), (1, stateful_tail_chain)],
        attack_prob: None,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apples_bench::scenarios::{ips_workload, perturbed_workload, RUN_NS, WARMUP_NS};

    #[test]
    fn specs_match_their_source_experiments() {
        let mut multihost = apples_bench::scenarios::mtu_workload(200.0, 71);
        multihost.flows = 512;
        assert_eq!(WORKLOADS[0].spec(71), multihost);
        assert_eq!(WORKLOADS[1].spec(17), ips_workload(30.0, 17));
        assert_eq!(WORKLOADS[2].spec(1), perturbed_workload(120.0, 1, 1.0));
        for w in [&WORKLOADS[0], &WORKLOADS[2]] {
            assert_eq!((w.run_ns, w.warmup_ns), (RUN_NS, WARMUP_NS), "{}", w.name);
        }
    }

    #[test]
    fn mean_arrivals_follow_the_offered_load() {
        for w in &WORKLOADS {
            let by_program =
                w.spec(w.default.seed).arrivals.mean_rate_pps() * w.run_ns as f64 / 1e9;
            let ours = w.mean_arrivals();
            assert!((ours - by_program).abs() < 1e-6 * ours, "{}: {ours} vs {by_program}", w.name);
        }
    }

    #[test]
    fn chains_name_real_stages_and_seeds_are_pinned() {
        for w in &WORKLOADS {
            assert!(w.chains.iter().all(|&(stage, _)| stage < w.stages.len()), "{}", w.name);
            assert_ne!(w.default.seed, w.held_out.seed, "{}", w.name);
            for pin in [&w.default, &w.held_out] {
                assert_eq!(pin.digest.len(), 16, "{} seed {}", w.name, pin.seed);
                assert_eq!(w.pinned(pin.seed), Some(pin.digest));
            }
            assert_eq!(w.pinned(w.default.seed + 1), None);
            assert!(find(w.name).is_some());
        }
        assert!(find("nope").is_none());
    }
}
