//! A log-linear histogram over `u64` observations.
//!
//! 64 linear sub-buckets per power-of-two magnitude (HDR-style, ≤ ~1.6%
//! relative error over the full `u64` range), with an exact max and
//! sum, so the count, max and mean are exact and only quantiles are
//! bucketed. The simulator's sink records end-to-end latency into one;
//! telemetry records queue depth, wait and service time.

use apples_core::json::Json;

const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = 6;
/// Magnitudes 0..=57 cover the u64 range above the linear region.
const MAGNITUDES: u64 = 58;

/// A fixed-footprint log-linear histogram of `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
    sum: u128,
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; (MAGNITUDES * SUB_BUCKETS) as usize],
            total: 0,
            max: 0,
            sum: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        let mag = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = mag - SUB_BITS + 1;
        let sub = v >> shift; // top bits
        let base = (u64::from(mag) - SUB_BITS as u64 + 1) * SUB_BUCKETS;
        (base + (sub - SUB_BUCKETS / 2)) as usize
    }

    fn bucket_value(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB_BUCKETS {
            return i;
        }
        let mag = i / SUB_BUCKETS + SUB_BITS as u64 - 1;
        let sub = i % SUB_BUCKETS + SUB_BUCKETS / 2;
        let shift = mag - SUB_BITS as u64 + 1;
        // Midpoint of the bucket.
        (sub << shift) + (1 << (shift - 1))
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let idx = Self::index(v).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.max = self.max.max(v);
        self.sum += u128::from(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The maximum recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate value at quantile `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty bins as `(representative value, count)`, ascending.
    pub fn nonzero_bins(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_value(i), c))
            .collect()
    }

    /// Deterministic JSON summary: count, max, mean, p50/p90/p99.
    pub fn summary_json(&self) -> Json {
        Json::obj()
            .field("count", self.total)
            .field("max", self.max)
            .field("mean", self.mean())
            .field("p50", self.quantile(0.50))
            .field("p90", self.quantile(0.90))
            .field("p99", self.quantile(0.99))
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apples_rng::Rng;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.max(), SUB_BUCKETS - 1);
        assert_eq!(h.quantile(1.0), SUB_BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LogHistogram::new();
        for mag in 7..40u32 {
            let v = (1u64 << mag) + (1 << (mag - 2));
            h.record(v);
            let q = h.quantile(1.0);
            let err = (q as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.02, "value {v} quantile {q} err {err}");
            // Reset for the next magnitude.
            h = LogHistogram::new();
        }
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean().to_bits(), 0.0f64.to_bits());
        assert!(h.nonzero_bins().is_empty());
    }

    #[test]
    fn histogram_percentiles_are_ordered() {
        let mut h = LogHistogram::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            h.record(x % 10_000_000);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn histogram_quantile_error_bounded_everywhere() {
        let mut rng = Rng::seed_from_u64(0x41571);
        for _ in 0..1000 {
            let v = rng.range_u64(1, u64::MAX / 4);
            let mut h = LogHistogram::new();
            h.record(v);
            let q = h.quantile(0.5);
            let err = (q as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.02, "v={v} q={q} err={err}");
        }
    }

    #[test]
    fn histogram_count_matches_records() {
        let mut rng = Rng::seed_from_u64(0x41572);
        for _ in 0..500 {
            let vs: Vec<u64> =
                (0..rng.range_usize(0, 200)).map(|_| rng.range_u64(0, 1_000_000)).collect();
            let mut h = LogHistogram::new();
            for v in &vs {
                h.record(*v);
            }
            assert_eq!(h.count(), vs.len() as u64);
            if let Some(max) = vs.iter().max() {
                assert_eq!(h.max(), *max);
                assert!(h.quantile(1.0) <= *max);
            }
        }
    }

    #[test]
    fn summary_json_has_the_advertised_keys() {
        let mut h = LogHistogram::new();
        h.record(10);
        h.record(1000);
        let s = h.summary_json().render();
        for key in ["\"count\"", "\"max\"", "\"mean\"", "\"p50\"", "\"p90\"", "\"p99\""] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
