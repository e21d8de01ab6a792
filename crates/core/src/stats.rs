//! Small-sample measurement statistics.
//!
//! §2 (citing the HotOS reproducibility panel) notes that performance
//! reproducibility is itself hard; regime detection therefore uses a
//! relative tolerance. [`Summary`] gives the tools to *choose* that
//! tolerance from data: run the measurement several times (different
//! seeds) and set the tolerance from the observed coefficient of
//! variation, rather than picking 1% by folklore.

use crate::regime::Tolerance;
use apples_rng::Rng;

/// Mean / spread summary of repeated measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes a non-empty slice of finite samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        assert!(samples.iter().all(|x| x.is_finite()), "samples must be finite");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let stddev = if n < 2 {
            0.0
        } else {
            let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary { n, mean, stddev, min, max }
    }

    /// Coefficient of variation (stddev / |mean|); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean.abs()
        }
    }

    /// Half-width of the ~95% confidence interval on the mean
    /// (2·stddev/√n — the normal approximation; fine for the tolerance-
    /// setting purpose, not for publication-grade inference).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            2.0 * self.stddev / (self.n as f64).sqrt()
        }
    }

    /// A regime-detection tolerance derived from the measured noise:
    /// `k` coefficients of variation, floored at 0.1% so exact synthetic
    /// data still tolerates float residue, capped below 1 as
    /// [`Tolerance`] requires.
    pub fn suggested_tolerance(&self, k: f64) -> Tolerance {
        assert!(k > 0.0, "k must be positive");
        let rel = (k * self.cv()).clamp(0.001, 0.5);
        Tolerance::new(rel)
    }
}

/// A percentile-bootstrap confidence interval on a mean.
///
/// Produced by [`bootstrap_mean_ci`]; used by the robustness experiment
/// family to report how stable a verdict-driving metric is across fault
/// replications, without assuming normality of the small samples.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapCi {
    /// Sample mean of the original data.
    pub mean: f64,
    /// Lower 2.5th-percentile bootstrap bound.
    pub lo: f64,
    /// Upper 97.5th-percentile bootstrap bound.
    pub hi: f64,
    /// Number of bootstrap resamples drawn.
    pub resamples: usize,
}

/// Deterministic percentile bootstrap for the mean: draws `resamples`
/// with-replacement resamples of `samples` using the in-repo RNG seeded
/// with `seed`, and returns the 2.5%/97.5% percentiles of the resampled
/// means. The same `(samples, resamples, seed)` triple always yields the
/// same interval, so bench reports containing CIs stay byte-identical
/// across reruns.
pub fn bootstrap_mean_ci(samples: &[f64], resamples: usize, seed: u64) -> BootstrapCi {
    assert!(!samples.is_empty(), "need at least one sample");
    assert!(resamples >= 1, "need at least one resample");
    assert!(samples.iter().all(|x| x.is_finite()), "samples must be finite");
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n == 1 {
        // Resampling a single point is a no-op; the interval collapses.
        return BootstrapCi { mean, lo: mean, hi: mean, resamples };
    }
    let mut rng = Rng::seed_from_u64(seed);
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut acc = 0.0;
        for _ in 0..n {
            acc += samples[rng.range_usize(0, n)];
        }
        means.push(acc / n as f64);
    }
    means.sort_by(f64::total_cmp);
    let pick = |q: f64| {
        let idx = (q * (resamples - 1) as f64).round() as usize;
        means[idx.min(resamples - 1)]
    };
    BootstrapCi { mean, lo: pick(0.025), hi: pick(0.975), resamples }
}

impl std::fmt::Display for BootstrapCi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} [{:.4}, {:.4}] ({} resamples)",
            self.mean, self.lo, self.hi, self.resamples
        )
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} +- {:.4} (n={}, min {:.4}, max {:.4})",
            self.mean, self.stddev, self.n, self.min, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apples_rng::Rng;

    #[test]
    fn known_values() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = Summary::from_samples(&[3.5]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn tolerance_scales_with_noise_and_is_floored() {
        let noisy = Summary::from_samples(&[90.0, 100.0, 110.0]);
        let tol = noisy.suggested_tolerance(3.0);
        assert!(tol.rel > 0.2, "3 CVs of 10% noise: got {}", tol.rel);
        let exact = Summary::from_samples(&[100.0, 100.0, 100.0]);
        assert_eq!(exact.suggested_tolerance(3.0).rel, 0.001);
    }

    #[test]
    fn display_is_readable() {
        let s = Summary::from_samples(&[1.0, 2.0]);
        assert!(s.to_string().contains("n=2"));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_rejected() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    fn mean_is_within_bounds() {
        let mut rng = Rng::seed_from_u64(0x57A71);
        for _ in 0..500 {
            let len = rng.range_usize(1, 50);
            let xs: Vec<f64> = (0..len).map(|_| rng.range_f64(-1e6, 1e6)).collect();
            let s = Summary::from_samples(&xs);
            assert!(s.mean >= s.min - 1e-9);
            assert!(s.mean <= s.max + 1e-9);
            assert!(s.stddev >= 0.0);
        }
    }

    #[test]
    fn bootstrap_ci_is_deterministic_and_brackets_the_mean() {
        let xs = [90.0, 95.0, 100.0, 105.0, 110.0, 98.0, 102.0, 97.0];
        let a = bootstrap_mean_ci(&xs, 500, 7);
        let b = bootstrap_mean_ci(&xs, 500, 7);
        assert_eq!(a, b, "same (samples, resamples, seed) must give the same CI");
        assert!(a.lo <= a.mean && a.mean <= a.hi);
        assert!(a.lo >= 90.0 && a.hi <= 110.0, "resampled means stay within the data range");
        assert!(a.hi - a.lo > 0.0, "noisy data must give a non-degenerate interval");
    }

    #[test]
    fn bootstrap_ci_narrows_with_tighter_data() {
        let noisy = bootstrap_mean_ci(&[50.0, 150.0, 80.0, 120.0, 60.0, 140.0], 400, 3);
        let tight = bootstrap_mean_ci(&[99.0, 101.0, 100.0, 100.5, 99.5, 100.0], 400, 3);
        assert!(tight.hi - tight.lo < noisy.hi - noisy.lo);
    }

    #[test]
    fn bootstrap_ci_collapses_for_constant_or_single_samples() {
        let one = bootstrap_mean_ci(&[42.0], 100, 1);
        assert_eq!((one.mean, one.lo, one.hi), (42.0, 42.0, 42.0));
        let same = bootstrap_mean_ci(&[7.0; 10], 100, 1);
        assert_eq!((same.lo, same.hi), (7.0, 7.0));
    }

    #[test]
    fn bootstrap_ci_display_is_readable() {
        let ci = bootstrap_mean_ci(&[1.0, 2.0, 3.0], 100, 0);
        assert!(ci.to_string().contains("100 resamples"));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn bootstrap_rejects_empty() {
        let _ = bootstrap_mean_ci(&[], 100, 0);
    }

    #[test]
    fn constant_samples_have_zero_stddev() {
        let mut rng = Rng::seed_from_u64(0x57A72);
        for _ in 0..500 {
            let x = rng.range_f64(-1e6, 1e6);
            let n = rng.range_usize(1, 20);
            let s = Summary::from_samples(&vec![x; n]);
            assert!(s.stddev.abs() < 1e-6);
        }
    }
}
