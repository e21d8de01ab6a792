//! Packet-size distributions.
//!
//! §2 of the paper notes the community convention of reporting both
//! packets per second at minimum size and data rates over packet mixes;
//! these distributions supply both kinds of workload.

use apples_rng::Rng;

/// Minimum Ethernet frame size (bytes, excluding preamble/IFG).
pub const MIN_FRAME: u32 = 64;
/// Maximum standard Ethernet frame size.
pub const MAX_FRAME: u32 = 1518;

/// The RFC 2544 recommended frame sizes for Ethernet benchmarking.
pub const RFC2544_SIZES: [u32; 7] = [64, 128, 256, 512, 1024, 1280, 1518];

/// A distribution over packet sizes in bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketSizeDist {
    /// Every packet has the same size.
    Fixed(u32),
    /// Simple IMIX: 64 B (7 parts), 570 B (4 parts), 1518 B (1 part) —
    /// the classic approximation of Internet mixes.
    Imix,
    /// Uniform over `[min, max]` inclusive.
    Uniform {
        /// Smallest frame, bytes.
        min: u32,
        /// Largest frame, bytes.
        max: u32,
    },
    /// Weighted empirical mix of `(size, weight)` entries.
    Empirical(Vec<(u32, f64)>),
    /// Bounded Pareto over `[min, max]` with tail exponent `alpha`:
    /// the heavy-tailed size mix of real transfers (many small frames,
    /// rare large ones), truncated to valid frame sizes.
    BoundedPareto {
        /// Smallest frame, bytes.
        min: u32,
        /// Largest frame, bytes.
        max: u32,
        /// Tail exponent (smaller = heavier tail); must be positive.
        alpha: f64,
    },
}

impl PacketSizeDist {
    /// Samples a packet size.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        match self {
            PacketSizeDist::Fixed(s) => *s,
            PacketSizeDist::Imix => {
                // 7:4:1 over 64/570/1518.
                let r = rng.range_u32(0, 12);
                if r < 7 {
                    64
                } else if r < 11 {
                    570
                } else {
                    1518
                }
            }
            PacketSizeDist::Uniform { min, max } => rng.range_u32_inclusive(*min, *max),
            #[expect(
                clippy::expect_used,
                reason = "invariant: entries asserted non-empty at the top of this arm; reached only via float round-off in the weight walk"
            )]
            PacketSizeDist::Empirical(entries) => {
                assert!(!entries.is_empty(), "empirical mix must not be empty");
                let total: f64 = entries.iter().map(|(_, w)| *w).sum();
                assert!(total > 0.0, "empirical mix weights must sum to > 0");
                let mut x = rng.range_f64(0.0, total);
                for (size, w) in entries {
                    if x < *w {
                        return *size;
                    }
                    x -= w;
                }
                entries.last().expect("non-empty").0
            }
            PacketSizeDist::BoundedPareto { min, max, alpha } => {
                assert!(min <= max, "min must not exceed max");
                assert!(*alpha > 0.0, "alpha must be positive");
                // Inverse-transform sampling of the bounded Pareto CDF.
                let (l, h, a) = (f64::from(*min), f64::from(*max), *alpha);
                let u: f64 = rng.next_f64();
                let la = l.powf(a);
                let ha = h.powf(a);
                let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / a);
                (x.round() as u32).clamp(*min, *max)
            }
        }
    }

    /// The distribution's mean size in bytes (exact, not sampled).
    pub fn mean_bytes(&self) -> f64 {
        match self {
            PacketSizeDist::Fixed(s) => f64::from(*s),
            PacketSizeDist::Imix => (7.0 * 64.0 + 4.0 * 570.0 + 1518.0) / 12.0,
            PacketSizeDist::Uniform { min, max } => (f64::from(*min) + f64::from(*max)) / 2.0,
            PacketSizeDist::Empirical(entries) => {
                let total: f64 = entries.iter().map(|(_, w)| *w).sum();
                entries.iter().map(|(s, w)| f64::from(*s) * w).sum::<f64>() / total
            }
            PacketSizeDist::BoundedPareto { min, max, alpha } => {
                // Closed-form mean of the bounded Pareto (alpha != 1).
                let (l, h, a) = (f64::from(*min), f64::from(*max), *alpha);
                if (a - 1.0).abs() < 1e-9 {
                    // alpha = 1: L*H/(H-L) * ln(H/L).
                    l * h / (h - l) * (h / l).ln()
                } else {
                    (l.powf(a) / (1.0 - (l / h).powf(a)))
                        * (a / (a - 1.0))
                        * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    #[test]
    fn fixed_always_returns_the_size() {
        let d = PacketSizeDist::Fixed(64);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 64);
        }
        assert_eq!(d.mean_bytes(), 64.0);
    }

    #[test]
    fn imix_hits_only_the_three_sizes_with_roughly_right_mix() {
        let d = PacketSizeDist::Imix;
        let mut r = rng();
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..12_000 {
            *counts.entry(d.sample(&mut r)).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 3);
        let c64 = counts[&64] as f64 / 12_000.0;
        let c570 = counts[&570] as f64 / 12_000.0;
        let c1518 = counts[&1518] as f64 / 12_000.0;
        assert!((c64 - 7.0 / 12.0).abs() < 0.02, "64B fraction {c64}");
        assert!((c570 - 4.0 / 12.0).abs() < 0.02, "570B fraction {c570}");
        assert!((c1518 - 1.0 / 12.0).abs() < 0.02, "1518B fraction {c1518}");
    }

    #[test]
    fn imix_mean_matches_closed_form() {
        assert!((PacketSizeDist::Imix.mean_bytes() - 353.833).abs() < 0.01);
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let d = PacketSizeDist::Uniform { min: 100, max: 200 };
        let mut r = rng();
        for _ in 0..1000 {
            let s = d.sample(&mut r);
            assert!((100..=200).contains(&s));
        }
        assert_eq!(d.mean_bytes(), 150.0);
    }

    #[test]
    fn empirical_respects_weights() {
        let d = PacketSizeDist::Empirical(vec![(64, 0.9), (1518, 0.1)]);
        let mut r = rng();
        let small = (0..10_000).filter(|_| d.sample(&mut r) == 64).count();
        assert!((small as f64 / 10_000.0 - 0.9).abs() < 0.02);
        assert!((d.mean_bytes() - (0.9 * 64.0 + 0.1 * 1518.0)).abs() < 1e-9);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = PacketSizeDist::Imix;
        let a: Vec<u32> = {
            let mut r = Rng::seed_from_u64(7);
            (0..50).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<u32> = {
            let mut r = Rng::seed_from_u64(7);
            (0..50).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn bounded_pareto_stays_in_bounds_and_skews_small() {
        let d = PacketSizeDist::BoundedPareto { min: 64, max: 1518, alpha: 1.2 };
        let mut r = rng();
        let mut small = 0u32;
        let mut sum = 0u64;
        const N: u32 = 20_000;
        for _ in 0..N {
            let s = d.sample(&mut r);
            assert!((64..=1518).contains(&s), "size {s} out of bounds");
            if s < 128 {
                small += 1;
            }
            sum += u64::from(s);
        }
        // Heavy tail means most packets are near the minimum…
        assert!(f64::from(small) / f64::from(N) > 0.5, "small fraction {small}/{N}");
        // …and the empirical mean matches the closed form within noise.
        let emp = sum as f64 / f64::from(N);
        let exact = d.mean_bytes();
        assert!((emp - exact).abs() / exact < 0.05, "empirical {emp} vs exact {exact}");
    }

    #[test]
    fn bounded_pareto_alpha_one_mean() {
        let d = PacketSizeDist::BoundedPareto { min: 100, max: 1000, alpha: 1.0 };
        // L*H/(H-L)*ln(H/L) = 100*1000/900 * ln(10) = 255.84.
        assert!((d.mean_bytes() - 255.843).abs() < 0.01, "{}", d.mean_bytes());
    }

    #[test]
    fn rfc2544_set_is_the_standard_seven() {
        assert_eq!(RFC2544_SIZES.len(), 7);
        assert_eq!(RFC2544_SIZES[0], MIN_FRAME);
        assert_eq!(RFC2544_SIZES[6], MAX_FRAME);
    }
}
