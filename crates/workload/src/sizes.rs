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
        }
    }

    /// The distribution's mean size in bytes (exact, not sampled).
    pub fn mean_bytes(&self) -> f64 {
        match self {
            PacketSizeDist::Fixed(s) => f64::from(*s),
            PacketSizeDist::Imix => (7.0 * 64.0 + 4.0 * 570.0 + 1518.0) / 12.0,
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
    fn rfc2544_set_is_the_standard_seven() {
        assert_eq!(RFC2544_SIZES.len(), 7);
        assert_eq!(RFC2544_SIZES[0], MIN_FRAME);
        assert_eq!(RFC2544_SIZES[6], MAX_FRAME);
    }
}
