//! Flow populations: synthetic 5-tuples with Zipf popularity.
//!
//! Per-flow structure matters for the fairness experiments (Jain's index
//! is computed over per-flow service) and for stateful network functions
//! (NAT tables, per-flow counters). Flow popularity on real links is
//! heavy-tailed, which Zipf captures with one parameter.

use apples_rng::Rng;

/// A synthetic IPv4 5-tuple identifying a flow.
///
/// `Ord` is derived so flow tables can use deterministic ordered maps
/// (`BTreeMap`) — lint rule D1 bans unordered containers from
/// simulation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FiveTuple {
    /// Source IPv4 address (as a u32).
    pub src_ip: u32,
    /// Destination IPv4 address (as a u32).
    pub dst_ip: u32,
    /// Source TCP/UDP port.
    pub src_port: u16,
    /// Destination TCP/UDP port.
    pub dst_port: u16,
    /// IP protocol (6 = TCP, 17 = UDP).
    pub proto: u8,
}

impl FiveTuple {
    /// A stable non-cryptographic hash of the tuple (FNV-1a), used by
    /// ECMP and RSS steering and by sketches.
    pub fn hash64(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        };
        for b in self.src_ip.to_be_bytes() {
            mix(b);
        }
        for b in self.dst_ip.to_be_bytes() {
            mix(b);
        }
        for b in self.src_port.to_be_bytes() {
            mix(b);
        }
        for b in self.dst_port.to_be_bytes() {
            mix(b);
        }
        mix(self.proto);
        h
    }
}

/// Guide-table buckets per flow, before the cap.
const GUIDE_BUCKETS_PER_FLOW: usize = 16;
/// Most guide-table buckets a population gets (256 KiB of `u32`s).
const MAX_GUIDE_BUCKETS: usize = 1 << 16;

/// A population of `n` flows whose packet-level popularity follows a
/// Zipf distribution with exponent `s` (`s = 0` is uniform; `s ≈ 1`
/// matches measured Internet flow skew).
///
/// Sampling inverts the CDF through a guide table, so a draw reads one
/// guide entry and searches only the CDF entries inside that bucket.
/// With `G` buckets, `guide[j]` counts the CDF entries below `j / G`,
/// and a draw `u` picks `L(u) = #{i : cdf[i] < u}` clamped to `n − 1`,
/// the index a binary search over the whole CDF picks:
///
/// - `G` is a power of two no larger than 2^16, so for any `u` in
///   `[0, 1)` the products `u·G` and `j / G` are exact and
///   `j = ⌊u·G⌋` satisfies `j / G ≤ u < (j + 1) / G`. (`next_f64`
///   returns `m·2^-53` with `m < 2^53`; scaling by `G` shifts the
///   exponent and rounds nothing.)
/// - The CDF is non-decreasing, so `guide[j] ≤ L(u) ≤ guide[j + 1]`:
///   entries below `j / G` are below `u`, and entries at or above
///   `(j + 1) / G` are above it. The bucket search over
///   `cdf[guide[j]..guide[j + 1]]` therefore stops at `L(u)`.
/// - A binary search over the whole CDF returns `L(u)` whenever no two
///   CDF entries are equal: a miss reports the insertion point, which
///   is `L(u)`, and a hit happens only when `cdf[i] = u`, where
///   `i = L(u)`. Both clamp to `n − 1`.
///
/// Two CDF entries are equal only when a weight falls below half an
/// ulp of the running sum, which takes a huge exponent. On an exact
/// tie with such a run, the guide table returns the run's first index,
/// where a binary search could return any index in it.
#[derive(Debug, Clone)]
pub struct FlowPopulation {
    tuples: Vec<FiveTuple>,
    /// `hashes[i] = tuples[i].hash64()`, hashed once at construction.
    hashes: Vec<u64>,
    /// Cumulative popularity distribution for sampling.
    cdf: Vec<f64>,
    /// `guide[j] = #{i : cdf[i] < j / G}` for `j` in `0..=G`, where
    /// `G = guide.len() − 1` is a power of two.
    guide: Vec<u32>,
}

impl FlowPopulation {
    /// Builds a population of `n` flows with Zipf exponent `s`, with
    /// 5-tuples drawn deterministically from `rng`.
    pub fn zipf(n: usize, s: f64, rng: &mut Rng) -> Self {
        assert!(n > 0, "need at least one flow");
        assert!(u32::try_from(n).is_ok(), "flow indices must fit in a u32");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let tuples: Vec<FiveTuple> = (0..n)
            .map(|_| FiveTuple {
                // Private address space on both sides; ephemeral source
                // ports and one of a few well-known destination ports.
                src_ip: 0x0A00_0000 | rng.range_u32(0, 0x00FF_FFFF),
                dst_ip: 0xC0A8_0000 | rng.range_u32(0, 0xFFFF),
                src_port: rng.range_u16(1024, u16::MAX),
                // Web traffic dominates: half the flows target port 80,
                // the rest spread over other well-known services.
                dst_port: if rng.gen_bool(0.5) {
                    80
                } else {
                    const ALT_PORTS: [u16; 4] = [443, 53, 8080, 5201];
                    ALT_PORTS[rng.range_usize(0, ALT_PORTS.len())]
                },
                proto: if rng.gen_bool(0.9) { 6 } else { 17 },
            })
            .collect();

        let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let guide = guide_table(&cdf);
        let hashes = tuples.iter().map(FiveTuple::hash64).collect();
        FlowPopulation { tuples, hashes, cdf, guide }
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the population is empty (never: construction requires
    /// `n > 0`; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Samples a flow index by popularity: one uniform draw, inverted
    /// through the CDF.
    pub fn sample_index(&self, rng: &mut Rng) -> usize {
        self.index_for(rng.next_f64())
    }

    /// The flow a uniform draw `u` in `[0, 1)` picks: `#{i : cdf[i] < u}`
    /// clamped to the last flow, found inside `u`'s guide bucket.
    fn index_for(&self, u: f64) -> usize {
        let buckets = self.guide.len() - 1;
        let j = (u * buckets as f64) as usize;
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        (lo + self.cdf[lo..hi].partition_point(|&c| c < u)).min(self.tuples.len() - 1)
    }

    /// The 5-tuple of flow `i`.
    pub fn tuple(&self, i: usize) -> FiveTuple {
        self.tuples[i]
    }

    /// `tuple(i).hash64()`, without hashing again.
    pub(crate) fn hash(&self, i: usize) -> u64 {
        self.hashes[i]
    }
}

/// Builds the guide table over a non-decreasing CDF in one merged pass
/// over the bucket edges and the CDF: `G` is the power of two at or
/// above 16 buckets per flow, capped at 2^16, and entry `j` counts the
/// CDF entries below `j / G`.
fn guide_table(cdf: &[f64]) -> Vec<u32> {
    let buckets = (cdf.len() * GUIDE_BUCKETS_PER_FLOW).next_power_of_two().min(MAX_GUIDE_BUCKETS);
    let mut guide = Vec::with_capacity(buckets + 1);
    let mut below = 0;
    for j in 0..=buckets {
        let edge = j as f64 / buckets as f64;
        while below < cdf.len() && cdf[below] < edge {
            below += 1;
        }
        // Lossless: `zipf` asserts the flow count fits in a u32.
        guide.push(below as u32);
    }
    guide
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(11)
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut r = rng();
        let pop = FlowPopulation::zipf(100, 1.0, &mut r);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[pop.sample_index(&mut r)] += 1;
        }
        // Rank-0 flow should get ~1/H(100) ~ 19% of packets; rank 99 ~0.2%.
        let p0 = f64::from(counts[0]) / 1e5;
        assert!(p0 > 0.15 && p0 < 0.25, "rank-0 share {p0}");
        assert!(counts[0] > counts[50] && counts[50] >= counts[99].saturating_sub(50));
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let mut r = rng();
        let pop = FlowPopulation::zipf(10, 0.0, &mut r);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[pop.sample_index(&mut r)] += 1;
        }
        for c in counts {
            let share = f64::from(c) / 1e5;
            assert!((share - 0.1).abs() < 0.01, "share {share}");
        }
    }

    #[test]
    fn tuples_are_plausible_and_deterministic() {
        let a = FlowPopulation::zipf(16, 1.0, &mut Rng::seed_from_u64(5));
        let b = FlowPopulation::zipf(16, 1.0, &mut Rng::seed_from_u64(5));
        for i in 0..16 {
            assert_eq!(a.tuple(i), b.tuple(i));
            let t = a.tuple(i);
            assert_eq!(t.src_ip >> 24, 0x0A, "src in 10/8");
            assert!(t.src_port >= 1024);
            assert!(t.proto == 6 || t.proto == 17);
        }
        assert_eq!(a.len(), 16);
        assert!(!a.is_empty());
    }

    #[test]
    fn hash_is_stable_and_spreads() {
        let mut r = rng();
        let pop = FlowPopulation::zipf(64, 0.0, &mut r);
        let h0 = pop.tuple(0).hash64();
        assert_eq!(h0, pop.tuple(0).hash64());
        let distinct: std::collections::BTreeSet<u64> =
            (0..64).map(|i| pop.tuple(i).hash64()).collect();
        assert!(distinct.len() >= 60, "{} distinct hashes", distinct.len());
    }

    #[test]
    fn each_flow_carries_its_tuples_hash() {
        for n in [1, 64, 256, 512, 4096] {
            let pop = FlowPopulation::zipf(n, 1.0, &mut rng());
            for i in 0..n {
                assert_eq!(pop.hash(i), pop.tuple(i).hash64(), "n {n}: flow {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn empty_population_rejected() {
        let _ = FlowPopulation::zipf(0, 1.0, &mut rng());
    }

    /// Every population size and exponent the repository builds.
    const SIZES: [usize; 7] = [1, 2, 3, 64, 256, 512, 4096];
    const EXPONENTS: [f64; 4] = [0.0, 0.8, 1.0, 1.2];

    fn grid() -> impl Iterator<Item = (usize, f64, FlowPopulation)> {
        SIZES.into_iter().flat_map(|n| {
            EXPONENTS.into_iter().map(move |s| (n, s, FlowPopulation::zipf(n, s, &mut rng())))
        })
    }

    /// The flow index a binary search over the whole CDF picks for `u`:
    /// the sampler before the guide table, kept as the oracle.
    fn binary_search_index(pop: &FlowPopulation, u: f64) -> usize {
        match pop.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(pop.len() - 1),
        }
    }

    fn ulp_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn ulp_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn cdf_is_strictly_increasing_on_the_repo_grid() {
        for (n, s, pop) in grid() {
            assert!(pop.cdf.windows(2).all(|w| w[0] < w[1]), "n {n}, s {s}: CDF has a tie");
        }
    }

    #[test]
    fn guide_entries_count_the_cdf_below_each_bucket_edge() {
        for (n, s, pop) in grid() {
            let buckets = pop.guide.len() - 1;
            assert!(buckets.is_power_of_two(), "n {n}, s {s}: {buckets} buckets");
            assert_eq!(buckets, (16 * n).next_power_of_two().min(1 << 16), "n {n}, s {s}");
            for (j, &g) in pop.guide.iter().enumerate() {
                let edge = j as f64 / buckets as f64;
                let below = pop.cdf.partition_point(|&c| c < edge);
                assert_eq!(g as usize, below, "n {n}, s {s}: guide[{j}]");
            }
        }
    }

    #[test]
    fn guide_sampling_matches_binary_search_on_seeded_draws() {
        for (n, s, pop) in grid() {
            let mut draws = Rng::seed_from_u64(0x6D1DE ^ n as u64);
            let mut oracle = draws.clone();
            for k in 0..100_000 {
                let got = pop.sample_index(&mut draws);
                let want = binary_search_index(&pop, oracle.next_f64());
                assert_eq!(got, want, "n {n}, s {s}: draw {k}");
            }
            // One `next_f64` per pick, so the streams stay in step.
            assert_eq!(draws, oracle, "n {n}, s {s}: the sampler drew a different count");
        }
    }

    #[test]
    fn guide_sampling_matches_binary_search_at_bucket_boundaries() {
        for (n, s, pop) in grid() {
            let mut probes = vec![0.0, ulp_down(1.0)];
            for &c in &pop.cdf {
                probes.extend([ulp_down(c), c, ulp_up(c)]);
            }
            for u in probes.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                assert_eq!(
                    pop.index_for(u),
                    binary_search_index(&pop, u),
                    "n {n}, s {s}: u = {u:e}"
                );
            }
        }
    }

    #[test]
    fn ties_in_the_cdf_resolve_to_the_first_index() {
        // At s = 10 the weights past rank ~42 fall below half an ulp of
        // the running sum, so the CDF's tail is one run of equal entries,
        // just below 1.
        let pop = FlowPopulation::zipf(64, 10.0, &mut rng());
        let tie = pop.cdf[63];
        let first = pop.cdf.iter().position(|&c| c.to_bits() == tie.to_bits()).unwrap_or(63);
        assert!(first < 62 && tie < 1.0, "no reachable tie run: {:?}", pop.cdf);
        assert_eq!(pop.index_for(tie), first);
        assert_eq!(pop.index_for(ulp_up(tie)), 63);
        // The binary search lands somewhere in the run.
        assert!((first..64).contains(&binary_search_index(&pop, tie)));
    }
}
