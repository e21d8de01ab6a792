//! Workload specifications: the full description of what a system is fed.
//!
//! A [`WorkloadSpec`] is the unit of "same workload" in the paper's
//! definition of identical deployments: two simulations built from the
//! same spec (same seed) observe identical packet sequences.

use crate::arrivals::{ArrivalGen, ArrivalProcess};
use crate::flows::{FiveTuple, FlowPopulation};
use crate::sizes::PacketSizeDist;
use apples_rng::Rng;

/// A generated packet before it enters the simulator: arrival time,
/// wire size, and flow identity with the flow's hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketStub {
    /// Arrival time, nanoseconds since workload start.
    pub t_ns: u64,
    /// Frame size in bytes.
    pub size_bytes: u32,
    /// Flow index within the population.
    pub flow: u32,
    /// The flow's 5-tuple.
    pub tuple: FiveTuple,
    /// `tuple.hash64()`, taken from the population's per-flow table.
    pub flow_hash: u64,
}

/// The complete, reproducible description of a packet workload.
///
/// # Examples
///
/// ```
/// use apples_workload::{ArrivalProcess, PacketSizeDist, WorkloadSpec};
///
/// let spec = WorkloadSpec {
///     sizes: PacketSizeDist::Imix,
///     arrivals: ArrivalProcess::Poisson { rate_pps: 1_000_000.0 },
///     flows: 64,
///     zipf_s: 1.0,
///     seed: 42,
/// };
/// // Identical specs generate identical packet streams — the paper's
/// // "same workload" requirement, guaranteed by construction.
/// assert_eq!(spec.packets_for(1_000_000), spec.packets_for(1_000_000));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Packet size distribution.
    pub sizes: PacketSizeDist,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Number of flows.
    pub flows: usize,
    /// Zipf popularity exponent over flows.
    pub zipf_s: f64,
    /// RNG seed; two specs with equal fields generate identical streams.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A convenient CBR spec: `rate_pps` packets/s of fixed-size packets
    /// over `flows` uniformly popular flows.
    pub fn cbr(rate_pps: f64, size_bytes: u32, flows: usize, seed: u64) -> Self {
        WorkloadSpec {
            sizes: PacketSizeDist::Fixed(size_bytes),
            arrivals: ArrivalProcess::Cbr { rate_pps },
            flows,
            zipf_s: 0.0,
            seed,
        }
    }

    /// The spec's average offered load in bits per second.
    pub fn offered_load_bps(&self) -> f64 {
        self.arrivals.mean_rate_pps() * self.sizes.mean_bytes() * 8.0
    }

    /// Wraps the arrival process in periodic overload windows: `surge`×
    /// the instantaneous rate for `on_ns` out of every `period_ns`.
    /// The perturbed spec is still fully reproducible from its fields —
    /// the windows are functions of simulated time, not of an extra RNG
    /// stream — so robustness experiments replay exactly.
    pub fn with_overload_bursts(mut self, surge: f64, on_ns: u64, period_ns: u64) -> Self {
        self.arrivals = ArrivalProcess::OverloadBursts {
            base: Box::new(self.arrivals),
            surge,
            on_ns,
            period_ns,
        };
        self
    }

    /// Instantiates the generator.
    pub fn stream(&self) -> PacketStream {
        let mut rng = Rng::seed_from_u64(self.seed);
        let population = FlowPopulation::zipf(self.flows.max(1), self.zipf_s, &mut rng);
        PacketStream {
            rng,
            gen: self.arrivals.generator(),
            sizes: self.sizes.clone(),
            population,
            t_ns: 0,
        }
    }

    /// Collects all packets arriving within the first `duration_ns`.
    pub fn packets_for(&self, duration_ns: u64) -> Vec<PacketStub> {
        self.stream().take_while(|p| p.t_ns < duration_ns).collect()
    }
}

/// Iterator over a workload's packets (infinite; bound it by time).
pub struct PacketStream {
    rng: Rng,
    gen: ArrivalGen,
    sizes: PacketSizeDist,
    population: FlowPopulation,
    t_ns: u64,
}

impl Iterator for PacketStream {
    type Item = PacketStub;

    fn next(&mut self) -> Option<PacketStub> {
        self.t_ns = self.t_ns.saturating_add(self.gen.next_gap_ns(&mut self.rng));
        let flow = self.population.sample_index(&mut self.rng);
        Some(PacketStub {
            t_ns: self.t_ns,
            size_bytes: self.sizes.sample(&mut self.rng),
            flow: flow as u32,
            tuple: self.population.tuple(flow),
            flow_hash: self.population.hash(flow),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_specs_generate_identical_streams() {
        let spec = WorkloadSpec {
            sizes: PacketSizeDist::Imix,
            arrivals: ArrivalProcess::Poisson { rate_pps: 1e6 },
            flows: 32,
            zipf_s: 1.0,
            seed: 1234,
        };
        let a = spec.packets_for(5_000_000);
        let b = spec.packets_for(5_000_000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec = WorkloadSpec::cbr(1e6, 64, 8, 1);
        let a = spec.packets_for(1_000_000);
        spec.seed = 2;
        let b = spec.packets_for(1_000_000);
        // CBR arrival times coincide but flows/tuples differ.
        assert_ne!(a, b);
    }

    #[test]
    fn offered_load_matches_rate_times_size() {
        let spec = WorkloadSpec::cbr(1e6, 125, 1, 0);
        assert!((spec.offered_load_bps() - 1e9).abs() < 1.0); // 1 Mpps * 1000 bit
    }

    #[test]
    fn cbr_spacing_is_even() {
        let spec = WorkloadSpec::cbr(1e6, 64, 4, 7);
        let pkts = spec.packets_for(10_000_000); // 10 ms -> ~10k packets
        assert!((pkts.len() as i64 - 10_000).abs() <= 1, "{} packets", pkts.len());
        let gaps: Vec<u64> = pkts.windows(2).map(|w| w[1].t_ns - w[0].t_ns).collect();
        assert!(gaps.iter().all(|g| *g == 1000), "uneven CBR gaps");
    }

    #[test]
    fn arrival_times_are_monotone() {
        let spec = WorkloadSpec {
            sizes: PacketSizeDist::Fixed(64),
            arrivals: ArrivalProcess::Poisson { rate_pps: 1e6 },
            flows: 4,
            zipf_s: 0.5,
            seed: 3,
        };
        let pkts = spec.packets_for(20_000_000);
        assert!(pkts.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn every_stub_carries_its_tuples_hash() {
        let spec = WorkloadSpec {
            sizes: PacketSizeDist::Imix,
            arrivals: ArrivalProcess::Poisson { rate_pps: 1e6 },
            flows: 512,
            zipf_s: 1.0,
            seed: 71,
        }
        .with_overload_bursts(3.0, 100_000, 1_000_000);
        let stubs = spec.packets_for(5_000_000);
        assert!(stubs.len() > 1_000, "{} stubs", stubs.len());
        for p in stubs {
            assert_eq!(p.flow_hash, p.tuple.hash64(), "{p:?}");
        }
    }

    #[test]
    fn flow_indices_stay_in_range() {
        let spec = WorkloadSpec::cbr(1e6, 64, 16, 5);
        for p in spec.packets_for(1_000_000) {
            assert!(p.flow < 16);
        }
    }

    #[test]
    fn overload_bursts_deliver_more_packets_and_replay() {
        let clean = WorkloadSpec::cbr(1e6, 64, 8, 17);
        let perturbed = clean.clone().with_overload_bursts(4.0, 250_000, 1_000_000);
        let a = perturbed.packets_for(10_000_000);
        let b = perturbed.packets_for(10_000_000);
        assert_eq!(a, b, "perturbed streams must replay from the spec alone");
        let n_clean = clean.packets_for(10_000_000).len() as f64;
        let ratio = a.len() as f64 / n_clean;
        // 4x surge at 25% duty -> 1.75x mean packets.
        assert!((ratio - 1.75).abs() < 0.1, "packet ratio {ratio}");
    }
}
